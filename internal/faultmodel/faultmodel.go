// Package faultmodel contains the analytical fault mathematics of the
// paper: given a per-bit error rate BER(VDD), it derives block failure
// probabilities, expected effective cache capacity, the set-yield
// constraint (every set must keep at least one non-faulty block, because
// the proposed mechanism has no set-wise data redundancy), overall cache
// yield, and the two design-time voltage solvers:
//
//   - VDD2, the SPCS voltage: the lowest allowed voltage at which the
//     expected proportion of non-faulty blocks is at least 99 % (and the
//     set constraint holds), and
//   - VDD1, the DPCS floor: the lowest allowed voltage at which the
//     expected cache yield (probability that every set has at least one
//     non-faulty block) is at least the target (99 % in the paper).
//
// All voltages are evaluated on a 10 mV grid, like the paper's CACTI and
// fault-model sweeps.
package faultmodel

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sram"
)

// VStep is the voltage evaluation granularity (10 mV, as in the paper).
const VStep = 0.01

// Geometry describes the fault-relevant shape of a cache: how many sets
// and ways it has and how many data bits each block holds. Tag bits are
// excluded: the tag array stays at nominal VDD and is assumed never
// faulty, per the paper's mechanism.
type Geometry struct {
	Sets      int // number of sets
	Ways      int // associativity
	BlockBits int // data bits per block (block size * 8)
}

// Blocks returns the total number of data blocks.
func (g Geometry) Blocks() int { return g.Sets * g.Ways }

// Validate checks the geometry for sanity.
func (g Geometry) Validate() error {
	if g.Sets <= 0 || g.Ways <= 0 || g.BlockBits <= 0 {
		return fmt.Errorf("faultmodel: invalid geometry %+v", g)
	}
	return nil
}

// Model couples a geometry with a BER model.
type Model struct {
	Geom Geometry
	BER  sram.BERModel
}

// New constructs a Model, validating the geometry.
func New(geom Geometry, ber sram.BERModel) (*Model, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if ber == nil {
		return nil, fmt.Errorf("faultmodel: nil BER model")
	}
	return &Model{Geom: geom, BER: ber}, nil
}

// PBlockFail returns the probability that a single block is faulty at the
// given voltage: 1 - (1-ber)^bits, computed in log space for accuracy at
// tiny BERs.
func (m *Model) PBlockFail(vdd float64) float64 {
	return PFailBits(m.BER.BER(vdd), m.Geom.BlockBits)
}

// PFailBits returns 1-(1-ber)^bits computed stably.
func PFailBits(ber float64, bits int) float64 {
	if ber <= 0 {
		return 0
	}
	if ber >= 1 {
		return 1
	}
	// log1p for numerical stability: (1-ber)^bits = exp(bits*log1p(-ber)).
	return -math.Expm1(float64(bits) * math.Log1p(-ber))
}

// ExpectedCapacity returns the expected proportion of non-faulty blocks
// at the given voltage: 1 - PBlockFail(v).
func (m *Model) ExpectedCapacity(vdd float64) float64 {
	return 1 - m.PBlockFail(vdd)
}

// PSetFail returns the probability that one set has *all* ways faulty at
// the given voltage (the event the mechanism cannot tolerate).
func (m *Model) PSetFail(vdd float64) float64 {
	p := m.PBlockFail(vdd)
	return math.Pow(p, float64(m.Geom.Ways))
}

// Yield returns the probability that every set keeps at least one
// non-faulty block at the given voltage:
//
//	yield = (1 - pBlock^ways)^sets
//
// computed in log space for stability with many sets.
func (m *Model) Yield(vdd float64) float64 {
	ps := m.PSetFail(vdd)
	if ps <= 0 {
		return 1
	}
	if ps >= 1 {
		return 0
	}
	return math.Exp(float64(m.Geom.Sets) * math.Log1p(-ps))
}

// gridSpan orders the bounds of [lo, hi] and returns its lower end and
// its number of 10 mV steps.
func gridSpan(lo, hi float64) (float64, int) {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo, int(math.Round((hi - lo) / VStep))
}

// gridPoint returns the grid voltage i steps above lo, snapped to keep
// voltages printable (0.54, not 0.5400000001).
func gridPoint(lo float64, i int) float64 {
	return math.Round((lo+float64(i)*VStep)*100) / 100
}

// Grid returns the 10 mV voltage grid over [lo, hi] (bounds in either
// order), inclusive of both endpoints, from low to high. Every curve in
// the reproduction is sampled at these points.
func Grid(lo, hi float64) []float64 {
	lo, steps := gridSpan(lo, hi)
	var vs []float64
	for i := 0; i <= steps; i++ {
		vs = append(vs, gridPoint(lo, i))
	}
	return vs
}

// MinVDD returns the lowest grid voltage in [lo, hi] (bounds in either
// order, the points Grid(lo, hi) lists) at which meets holds, or
// ok=false if it holds at none. meets must be monotone on the grid:
// false below some point and true from it on, as a yield or capacity
// target is for a model whose yield and capacity never fall as VDD
// rises, and as the conjunction of two such targets is. The search
// bisects the grid's indices, so it calls meets about log2 of the
// number of points times, and it allocates nothing.
func MinVDD(lo, hi float64, meets func(vdd float64) bool) (vdd float64, ok bool) {
	lo, steps := gridSpan(lo, hi)
	i := sort.Search(steps+1, func(i int) bool { return meets(gridPoint(lo, i)) })
	if i > steps {
		return 0, false
	}
	return gridPoint(lo, i), true
}

// MinVDDForCapacity returns the lowest grid voltage in [lo, hi] at which
// the expected block-survival proportion is at least capTarget AND the
// yield constraint yieldTarget is met (the SPCS VDD2 rule: "likely to
// have at least 99 % effective block capacity", also subject to the
// all-sets constraint). ok is false if no grid voltage qualifies.
func (m *Model) MinVDDForCapacity(capTarget, yieldTarget, lo, hi float64) (vdd float64, ok bool) {
	return MinVDD(lo, hi, func(v float64) bool {
		return m.ExpectedCapacity(v) >= capTarget && m.Yield(v) >= yieldTarget
	})
}

// MinVDDForYield returns the lowest grid voltage in [lo, hi] at which the
// cache yield is at least yieldTarget (the DPCS VDD1 rule). ok is false
// if no grid voltage qualifies.
func (m *Model) MinVDDForYield(yieldTarget, lo, hi float64) (vdd float64, ok bool) {
	return MinVDD(lo, hi, func(v float64) bool { return m.Yield(v) >= yieldTarget })
}

// VDD1 capacity floor: the minimum expected block-survival proportion at
// the DPCS floor voltage VDD1. The paper notes that "reducing voltage
// further than VDD1 is not likely to be useful, as the yield quickly
// drops off and the power savings have diminishing returns". The budget
// of tolerable block loss scales with associativity: losing a block from
// a 16-way set removes 6 % of its frames, from a 4-way set 25 %, so
// highly associative caches degrade far more gracefully — this is also
// why the paper's larger, more associative Config B reaches lower VDD1
// voltages (Table 2), saves more energy under DPCS, and pays its larger
// worst-case performance overhead (4.4 % vs 2.6 %).
const (
	// VDD1LossPerWay is the tolerated expected block-loss fraction per
	// way of associativity at VDD1.
	VDD1LossPerWay = 0.007
	// VDD1MaxLoss caps the tolerated block loss regardless of ways.
	VDD1MaxLoss = 0.10
)

// VDD1CapacityFloor returns the minimum expected capacity at VDD1 for a
// cache with the given associativity.
func VDD1CapacityFloor(ways int) float64 {
	loss := VDD1LossPerWay * float64(ways)
	if loss > VDD1MaxLoss {
		loss = VDD1MaxLoss
	}
	return 1 - loss
}

// VDDLevels computes the paper's three-level voltage set for a cache:
// VDD3 = nominal, VDD2 = SPCS voltage (99 % capacity + yield), VDD1 =
// yield-constrained minimum (99 % yield, subject to the capacity floor
// capFloor — see VDD1CapacityFloorL1/LLC). It returns an error if the
// constraints cannot be met on the grid.
func (m *Model) VDDLevels(nominal, lo, capFloor float64) (vdd1, vdd2, vdd3 float64, err error) {
	vdd3 = nominal
	vdd2, ok := m.MinVDDForCapacity(0.99, 0.99, lo, nominal)
	if !ok {
		return 0, 0, 0, fmt.Errorf("faultmodel: no voltage in [%.2f,%.2f] meets the 99%% capacity target", lo, nominal)
	}
	vdd1, ok = m.MinVDDForCapacity(capFloor, 0.99, lo, nominal)
	if !ok {
		return 0, 0, 0, fmt.Errorf("faultmodel: no voltage in [%.2f,%.2f] meets the 99%% yield target", lo, nominal)
	}
	if vdd1 > vdd2 {
		// The capacity constraint is strictly stronger than the yield
		// constraint for all practical geometries; guard anyway.
		vdd1 = vdd2
	}
	return vdd1, vdd2, vdd3, nil
}
