// Package sram models voltage-scaled 6T SRAM behaviour: the bit error
// rate (BER) as a function of supply voltage, and a functional cell array
// in which every cell has a Monte-Carlo-sampled minimum operating voltage
// (Vmin). A cell read or written below its Vmin misbehaves; at or above
// it, the cell is reliable. Because each cell has a single Vmin, the
// paper's *fault inclusion property* — a bit that fails at some voltage
// fails at all lower voltages — holds by construction, mirroring what the
// authors measured on their 45 nm SOI Red Cooper test chips with March SS.
package sram

import (
	"math"
	"sort"
)

// BERModel maps supply voltage to the probability that a single SRAM bit
// cell is faulty at that voltage. Implementations must be monotonically
// non-increasing in voltage (fault inclusion at the population level).
type BERModel interface {
	// BER returns the per-bit fault probability at supply voltage vdd.
	BER(vdd float64) float64
}

// anchor is one (voltage, log10 BER) calibration point.
type anchor struct {
	vdd  float64
	logP float64
}

// WangCalhounBER is a monotone piecewise-log-linear BER(VDD) model with
// anchors chosen to match the magnitudes of the paper's Fig. 2 (which was
// computed from the Wang–Calhoun 45 nm read-SNM data): roughly 1e-9 at
// nominal 1.0 V rising to ~1e-3 by ~0.45 V. The read operation is the
// worst case of read/write/hold margins, and the paper adopts it for all
// cell failures, as do we.
type WangCalhounBER struct {
	anchors []anchor
	floor   float64 // lower clamp on BER
	ceil    float64 // upper clamp on BER
}

// NewWangCalhounBER returns the default calibrated BER model.
// See DESIGN.md §5 for the anchor rationale: with 512-bit (64 B) blocks
// the 99 %-capacity voltage lands near 0.70 V and the Config-A L1
// yield-constrained min-VDD near 0.54 V, matching the paper's Table 2.
func NewWangCalhounBER() *WangCalhounBER {
	return &WangCalhounBER{
		anchors: []anchor{
			{0.30, -1.8},
			{0.40, -2.6},
			{0.50, -3.5},
			{0.54, -3.8},
			{0.60, -4.2},
			{0.70, -4.7},
			{0.80, -6.0},
			{0.90, -7.5},
			{1.00, -9.0},
		},
		floor: 1e-12,
		ceil:  0.3,
	}
}

// BER returns the per-bit fault probability at the given supply voltage,
// interpolating linearly in log10 space between anchors and extrapolating
// with the edge segments' slopes. The result is clamped to
// [floor, ceil] ⊂ (0, 1).
func (m *WangCalhounBER) BER(vdd float64) float64 {
	a := m.anchors
	n := len(a)
	var logP float64
	switch {
	case vdd <= a[0].vdd:
		slope := (a[1].logP - a[0].logP) / (a[1].vdd - a[0].vdd)
		logP = a[0].logP + slope*(vdd-a[0].vdd)
	case vdd >= a[n-1].vdd:
		slope := (a[n-1].logP - a[n-2].logP) / (a[n-1].vdd - a[n-2].vdd)
		logP = a[n-1].logP + slope*(vdd-a[n-1].vdd)
	default:
		// Binary search for the bracketing segment.
		i := sort.Search(n, func(i int) bool { return a[i].vdd >= vdd })
		lo, hi := a[i-1], a[i]
		frac := (vdd - lo.vdd) / (hi.vdd - lo.vdd)
		logP = lo.logP + frac*(hi.logP-lo.logP)
	}
	p := math.Pow(10, logP)
	if p < m.floor {
		p = m.floor
	}
	if p > m.ceil {
		p = m.ceil
	}
	return p
}

// VminFromUniform converts a uniform(0,1) draw u into a per-cell minimum
// operating voltage consistent with the BER model: the cell with quantile
// u is faulty exactly at voltages where BER(v) > u, i.e. its Vmin is the
// smallest voltage with BER(v) <= u. The inversion is done by bisection
// over [lo, hi].
//
// Sampling every cell's Vmin this way makes the population fault rate at
// any voltage v equal BER(v) in expectation, while giving each individual
// cell a single threshold — exactly the fault-inclusion behaviour the
// paper observed on silicon.
func (m *WangCalhounBER) VminFromUniform(u, lo, hi float64) float64 {
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	// If even the highest voltage has BER > u the cell is always faulty.
	if m.BER(hi) > u {
		return math.Inf(1)
	}
	// If the lowest voltage is already reliable, Vmin is below the range.
	if m.BER(lo) <= u {
		return lo
	}
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if m.BER(mid) > u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
