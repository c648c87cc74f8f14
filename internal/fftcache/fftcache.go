// Package fftcache is the analytical model of FFT-Cache (BanaiyanMofrad
// et al., CASES 2011), the sophisticated FTVS baseline the paper compares
// against in Fig. 3. FFT-Cache remaps the faulty subblocks of faulty
// blocks onto "target" (sacrificial) blocks in the same or an adjacent
// set, so it keeps far more blocks usable at each voltage than the
// proposed mechanism (winning Fig. 3b) and reaches a lower min-VDD at
// fixed yield (winning part of Fig. 3d) — but it pays for it with a
// large per-voltage fault map and remapping logic: 13 % area and 16 %
// power overheads reported for a single low voltage, with one additional
// full fault map needed for every further voltage level because it lacks
// the compressed FM encoding enabled by the fault inclusion property.
//
// The DAC paper compares against FFT-Cache analytically, using
// FFT-Cache's original fault-tolerance model and published overheads; we
// do the same, with the overhead parameters exposed and documented.
package fftcache

import (
	"math"

	"repro/internal/cacti"
	"repro/internal/device"
	"repro/internal/faultmodel"
	"repro/internal/sram"
)

// Params are the FFT-Cache overhead and capability constants.
type Params struct {
	// AreaOverhead is the reported area overhead of the mechanism at a
	// single low voltage (fault map + remapping logic): 13 %.
	AreaOverhead float64
	// PowerOverhead is the reported power overhead multiplier applied to
	// the array power (remapping muxes, comparators): 16 %.
	PowerOverhead float64
	// MapPowerPerVDD is the static power of one full fault map plus its
	// configuration store, as a fraction of the *nominal* data-array
	// cell power. The map must stay at nominal VDD to be reliable.
	// FFT-Cache's map holds one entry per subblock; at 2 B subblocks
	// that is 1 bit per 16 data bits plus remap pointers ≈ 10 %.
	MapPowerPerVDD float64
	// LogicPowerNomFrac is the static power of the remapping logic
	// (muxes, comparators, configuration registers), also at nominal
	// VDD, as a fraction of the nominal data-array cell power.
	LogicPowerNomFrac float64
	// SubblockBits is the remapping granularity (16 = 2 B, per Table 1).
	SubblockBits int
	// MaxSacrificeFraction caps how many blocks can serve as remap
	// targets before sets stop being "functional" (FFT-Cache's global
	// fault map saturates); drives the min-VDD limit.
	MaxSacrificeFraction float64
}

// DefaultParams returns the published-overhead calibration.
func DefaultParams() Params {
	return Params{
		AreaOverhead:         0.13,
		PowerOverhead:        0.16,
		MapPowerPerVDD:       0.112,
		LogicPowerNomFrac:    0.05,
		SubblockBits:         16,
		MaxSacrificeFraction: 0.25,
	}
}

// Model evaluates FFT-Cache on a given cache geometry and BER model.
type Model struct {
	Geom   faultmodel.Geometry
	BER    sram.BERModel
	Params Params
	// ExtraVDDLevels is the number of low-voltage levels beyond the
	// first; each costs one more full fault map (the paper: "FFT-Cache
	// needs two entire fault maps for each of the lower VDDs" in the
	// three-level comparison).
	ExtraVDDLevels int
}

// New builds an FFT-Cache model with nLowVDDs low-voltage levels
// (nLowVDDs = 2 reproduces the paper's three-level comparison; 1 gives
// the two-level variant where the gap shrinks).
func New(geom faultmodel.Geometry, ber sram.BERModel, p Params, nLowVDDs int) *Model {
	if nLowVDDs < 1 {
		nLowVDDs = 1
	}
	return &Model{Geom: geom, BER: ber, Params: p, ExtraVDDLevels: nLowVDDs - 1}
}

// pSubblockFail returns the probability one subblock has >= 1 faulty bit.
func (m *Model) pSubblockFail(vdd float64) float64 {
	return faultmodel.PFailBits(m.BER.BER(vdd), m.Params.SubblockBits)
}

// pBlockFaulty returns the probability a block has at least one faulty
// subblock (and therefore needs remapping).
func (m *Model) pBlockFaulty(vdd float64) float64 {
	nsb := m.Geom.BlockBits / m.Params.SubblockBits
	q := m.pSubblockFail(vdd)
	return -math.Expm1(float64(nsb) * math.Log1p(-q))
}

// SacrificedFraction returns the expected fraction of blocks lost as
// remap targets at the given voltage. In FFT-Cache each faulty block
// borrows from a target block; targets are shared where fault patterns
// do not collide, so on average fewer than one target per faulty block
// is consumed when faults are sparse, degrading toward one-per-faulty as
// density rises.
func (m *Model) SacrificedFraction(vdd float64) float64 {
	q := m.pBlockFaulty(vdd)
	// Sharing efficiency: with sparse faults two faulty blocks rarely
	// collide in the same subblock position, so one target serves ~2
	// faulty blocks; sharing decays linearly as density grows.
	share := 2 - q // in [1,2]
	s := q / share
	if s > m.Params.MaxSacrificeFraction {
		s = m.Params.MaxSacrificeFraction
	}
	return s
}

// EffectiveCapacity returns the expected usable-block fraction at the
// given voltage: everything except the sacrificed targets (faulty blocks
// themselves remain usable thanks to remapping) — until the mechanism
// saturates, past which capacity collapses.
func (m *Model) EffectiveCapacity(vdd float64) float64 {
	q := m.pBlockFaulty(vdd)
	s := q / (2 - q)
	if s > m.Params.MaxSacrificeFraction {
		// Saturated: unrepaired faulty blocks are lost outright too.
		excess := s - m.Params.MaxSacrificeFraction
		return math.Max(0, 1-m.Params.MaxSacrificeFraction-2*excess)
	}
	return 1 - s
}

// Yield returns the probability the whole cache is functional at vdd.
// FFT-Cache keeps a faulty block usable by remapping its faulty
// subblocks onto a target block in the same or an adjacent set, so a
// set only becomes dysfunctional when every way is faulty *and* the
// adjacent-set target pool is exhausted too; we model that as one extra
// effective way (pattern collisions are second-order at the sparse
// fault densities of interest):
//
//	P(set fail) ~= q^(ways+1),  yield = (1 - q^(ways+1))^sets
//
// This places FFT-Cache's min-VDD below the proposed mechanism's
// (which fails at q^ways), as in the paper's Fig. 3d.
func (m *Model) Yield(vdd float64) float64 {
	q := m.pBlockFaulty(vdd)
	if q <= 0 {
		return 1
	}
	if q >= 1 {
		return 0
	}
	pfail := math.Pow(q, float64(m.Geom.Ways+1))
	if pfail >= 1 {
		return 0
	}
	return math.Exp(float64(m.Geom.Sets) * math.Log1p(-pfail))
}

// StaticPower returns FFT-Cache's total static power at the given data
// VDD using the same cacti component model as the proposed scheme:
// the (non-sacrificed... in FFT-Cache *all* blocks stay powered, since
// targets hold remapped data) data array at vdd with the 16 % mechanism
// overhead, the always-nominal fault maps (one per low VDD level beyond
// none), and the shared tag/periphery floor.
func (m *Model) StaticPower(cm *cacti.Model, vdd float64) float64 {
	t := cm.Tech
	dataCells := float64(m.Geom.Blocks() * m.Geom.BlockBits)
	cellW := dataCells * cm.Params.CellLeakEquiv * t.LeakagePower(device.RVT, vdd)
	// Mechanism power overhead applies to the array it manages.
	cellW *= 1 + m.Params.PowerOverhead
	// Fault maps at nominal VDD: one for the first low voltage plus one
	// per extra level.
	nMaps := 1 + m.ExtraVDDLevels
	nomCellW := dataCells * cm.Params.CellLeakEquiv * t.LeakagePower(device.RVT, t.VDDNom)
	mapW := (float64(nMaps)*m.Params.MapPowerPerVDD + m.Params.LogicPowerNomFrac) * nomCellW
	// Same periphery + tag floor as the proposed scheme's model.
	base := cm.StaticPower(t.VDDNom, 1)
	floor := base.DataPeripheryW + base.TagW
	return cellW + mapW + floor
}

// MinVDDForYield returns the lowest grid voltage meeting the yield
// target, or ok=false.
func (m *Model) MinVDDForYield(target, lo, hi float64) (float64, bool) {
	return faultmodel.MinVDD(lo, hi, func(v float64) bool { return m.Yield(v) >= target })
}

// PowerCapacityCurve returns (capacity, power) pairs across the voltage
// grid for Fig. 3a, lowest voltage first.
func (m *Model) PowerCapacityCurve(cm *cacti.Model, lo, hi float64) (caps, watts []float64) {
	for _, v := range faultmodel.Grid(lo, hi) {
		caps = append(caps, m.EffectiveCapacity(v))
		watts = append(watts, m.StaticPower(cm, v))
	}
	return caps, watts
}
