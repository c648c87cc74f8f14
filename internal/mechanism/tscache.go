package mechanism

import (
	"fmt"

	"repro/internal/cacti"
	"repro/internal/faultmodel"
	"repro/internal/report"
)

// TS-Cache (Shen et al., "TS Cache: a fast cache with timing-speculation
// mechanism under low supply voltages", PAPERS.md) observes that most
// low-voltage SRAM failures are *timing* faults — the cell still holds
// its value but resolves too slowly for the nominal access cycle — and
// only a minority are hard retention faults. Instead of disabling or
// repairing every faulty cell, TS-Cache speculates on single-cycle
// timing, detects mis-speculation with error-detecting sense logic, and
// replays the access with an extended (two-cycle) timing window. Only
// hard faults (plus the residue that stays faulty even with the longer
// window) cost capacity; the rest cost latency.
//
// Model, on the shared per-bit BER(v):
//
//	ber_hard(v)  = h·BER(v) + (1-h)·BER(v+Δ)     unrecoverable bits
//	ber_slow(v)  = (1-h)·(BER(v) - BER(v+Δ))     replay-recoverable bits
//
// where h = HardFraction and Δ = MarginV, the timing margin a replayed
// access buys expressed as an equivalent VDD uplift. Blocks with a hard
// bit are disabled PCS-style (fault map + gates: the setup's CMPCS
// component model), so
//
//	capacity(v) = 1 - PFailBits(ber_hard(v), blockBits)
//	yield(v)    = (1 - pBlock(v)^ways)^sets
//	penalty(v)  = PFailBits(ber_slow(v), blockBits) · ReplayCycles
//
// and static power adds always-nominal detector/replay logic on top of
// the voltage-scaled, capacity-gated array.

// TSParams calibrates the TS-Cache model.
type TSParams struct {
	// HardFraction is the fraction of low-voltage bit failures that are
	// hard (retention/write) faults rather than recoverable timing
	// faults. TS-Cache's premise is that timing faults dominate.
	HardFraction float64
	// MarginV is the equivalent VDD uplift of the extended two-cycle
	// timing window: a bit failing at v but passing at v+MarginV is
	// recoverable by replay.
	MarginV float64
	// ReplayCycles is the extra access latency of one replayed access.
	ReplayCycles float64
	// DetectorPowerNomFrac is the static power of the error-detecting
	// sense amplifiers and replay control, always at nominal VDD, as a
	// fraction of the nominal data-array cell power.
	DetectorPowerNomFrac float64
	// AreaOverheadFrac is the detector + replay-control silicon cost.
	AreaOverheadFrac float64
}

// DefaultTSParams returns the calibration used by the registry entry.
func DefaultTSParams() TSParams {
	return TSParams{
		HardFraction:         0.30,
		MarginV:              0.08,
		ReplayCycles:         1,
		DetectorPowerNomFrac: 0.03,
		AreaOverheadFrac:     0.04,
	}
}

type tsCacheMech struct {
	s Setup
	p TSParams
}

func newTSCache(s Setup) (Mechanism, error) {
	return &tsCacheMech{s: s, p: DefaultTSParams()}, nil
}

func (m *tsCacheMech) Name() string  { return "tscache" }
func (m *tsCacheMech) Label() string { return "TS-Cache" }

// hardBER is the per-bit rate of faults replay cannot recover.
func (m *tsCacheMech) hardBER(vdd float64) float64 {
	b := m.s.BER.BER(vdd)
	bm := m.s.BER.BER(vdd + m.p.MarginV)
	return m.p.HardFraction*b + (1-m.p.HardFraction)*bm
}

// slowBER is the per-bit rate of replay-recoverable timing faults.
func (m *tsCacheMech) slowBER(vdd float64) float64 {
	b := m.s.BER.BER(vdd)
	bm := m.s.BER.BER(vdd + m.p.MarginV)
	s := (1 - m.p.HardFraction) * (b - bm)
	if s < 0 {
		return 0
	}
	return s
}

func (m *tsCacheMech) pBlockHard(vdd float64) float64 {
	return blockFailFromBER(m.hardBER(vdd), m.s.FM.Geom.BlockBits)
}

func (m *tsCacheMech) Yield(vdd float64) float64 {
	return gridYieldFromBlockFail(m.pBlockHard(vdd), m.s.FM.Geom.Ways, m.s.FM.Geom.Sets)
}

func (m *tsCacheMech) EffectiveCapacity(vdd float64) float64 {
	return 1 - m.pBlockHard(vdd)
}

// StaticPower: hard-faulty blocks are gated exactly as in the proposed
// scheme (the CMPCS component model charges the fault map and gates),
// plus the always-nominal detector/replay logic.
func (m *tsCacheMech) StaticPower(cm *cacti.Model, vdd float64) float64 {
	arr := m.s.CMPCS.StaticPower(vdd, m.EffectiveCapacity(vdd)).TotalW
	nomCells := float64(m.s.FM.Geom.Blocks() * m.s.FM.Geom.BlockBits)
	return arr + m.p.DetectorPowerNomFrac*dataCellLeakW(cm, cm.Tech.VDDNom, nomCells)
}

func (m *tsCacheMech) MinVDDForYield(target, lo, hi float64) (float64, bool) {
	return faultmodel.MinVDD(lo, hi, func(v float64) bool { return m.Yield(v) >= target })
}

func (m *tsCacheMech) AreaOverhead() AreaOverhead {
	return AreaOverhead{
		Fraction: m.p.AreaOverheadFrac,
		Detail:   "error-detecting sense logic + replay control (always-nominal)",
	}
}

// LatencyPenalty returns the expected extra cycles per block access
// from timing-speculation replays at the given voltage.
func (m *tsCacheMech) LatencyPenalty(vdd float64) float64 {
	pSlow := blockFailFromBER(m.slowBER(vdd), m.s.FM.Geom.BlockBits)
	return pSlow * m.p.ReplayCycles
}

// Tables renders the scheme-specific latency-penalty study: how much
// capacity survives as hard faults only, and what the speculation costs
// in replays, per voltage.
func (m *tsCacheMech) Tables(lo, hi float64) []*report.Table {
	t := report.NewTable(
		fmt.Sprintf("TS-Cache timing speculation (%s): replay penalty vs VDD", m.s.Org.Name),
		"VDD (V)", "Slow-access frac", "Replay cycles/access", "Hard-fault capacity", "Yield")
	for _, v := range faultmodel.Grid(lo, hi) {
		pSlow := blockFailFromBER(m.slowBER(v), m.s.FM.Geom.BlockBits)
		t.AddRow(fmt.Sprintf("%.2f", v),
			fmt.Sprintf("%.4f", pSlow),
			fmt.Sprintf("%.4f", m.LatencyPenalty(v)),
			fmt.Sprintf("%.4f", m.EffectiveCapacity(v)),
			fmt.Sprintf("%.4f", m.Yield(v)))
	}
	return []*report.Table{t}
}
