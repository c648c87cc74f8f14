package mechanism

import (
	"fmt"

	"repro/internal/cacti"
	"repro/internal/faultmodel"
	"repro/internal/report"
)

// L2C2 (Escuin et al., "L2C2: Last-level compressed-contents non-volatile
// cache", PAPERS.md, applied here to low-voltage SRAM salvaging)
// recovers capacity from faulty blocks by compression: a block with
// faulty subblocks still stores a whole cache line if the line
// compresses into the block's fault-free subblocks. Where the proposed
// PCS scheme writes a faulty block off entirely, L2C2 salvages the
// fraction of faulty blocks whose resident lines compress enough.
//
// Model, on the shared per-bit BER(v) with S-bit salvage subblocks:
//
//	q_sb(v)   = PFailBits(BER(v), SubblockBits)     faulty-subblock prob
//	free(v)   = 1 - q_sb(v)                         usable subblock frac
//	P_salv(v) = c · P(ratio <= free(v))             salvage probability
//	p_lost(v) = pBlock(v) · (1 - P_salv(v))         truly lost blocks
//
// with compression ratio ~ Uniform[RatioMin, RatioMax] over the
// compressible fraction c of lines (a BDI/FPC-style compressibility
// profile). Capacity is 1 - p_lost; a set only fails when every way is
// lost; lost blocks are gated PCS-style, salvaged ones stay powered.

// L2C2Params calibrates the compressed-salvaging model.
type L2C2Params struct {
	// SubblockBits is the fault-tracking and salvage granularity.
	SubblockBits int
	// RatioMin/RatioMax bound the compressed-size distribution: a line
	// compresses to Uniform[RatioMin, RatioMax] of its original size.
	RatioMin, RatioMax float64
	// CompressibleFrac is the fraction of lines that compress at all.
	CompressibleFrac float64
	// LogicPowerNomFrac is the static power of the compressor/
	// decompressor and per-subblock fault metadata, always at nominal
	// VDD, as a fraction of the nominal data-array cell power.
	LogicPowerNomFrac float64
	// AreaOverheadFrac is the compression logic + metadata silicon cost.
	AreaOverheadFrac float64
	// DecompressCycles is the extra read latency of a salvaged block.
	DecompressCycles float64
}

// DefaultL2C2Params returns the calibration used by the registry entry.
func DefaultL2C2Params() L2C2Params {
	return L2C2Params{
		SubblockBits:      64,
		RatioMin:          0.25,
		RatioMax:          1.00,
		CompressibleFrac:  0.90,
		LogicPowerNomFrac: 0.05,
		AreaOverheadFrac:  0.045,
		DecompressCycles:  2,
	}
}

type l2c2Mech struct {
	s Setup
	p L2C2Params
}

func newL2C2(s Setup) (Mechanism, error) {
	return &l2c2Mech{s: s, p: DefaultL2C2Params()}, nil
}

func (m *l2c2Mech) Name() string  { return "l2c2" }
func (m *l2c2Mech) Label() string { return "L2C2" }

// pBlockFaulty is the probability a block holds >= 1 faulty bit.
func (m *l2c2Mech) pBlockFaulty(vdd float64) float64 {
	return blockFailFromBER(m.s.BER.BER(vdd), m.s.FM.Geom.BlockBits)
}

// SalvageProb returns the probability a faulty block is salvaged: its
// resident line compresses into the expected fault-free subblock
// fraction.
func (m *l2c2Mech) SalvageProb(vdd float64) float64 {
	qSb := faultmodel.PFailBits(m.s.BER.BER(vdd), m.p.SubblockBits)
	free := 1 - qSb
	fit := (free - m.p.RatioMin) / (m.p.RatioMax - m.p.RatioMin)
	if fit < 0 {
		fit = 0
	}
	if fit > 1 {
		fit = 1
	}
	return m.p.CompressibleFrac * fit
}

// pBlockLost is the probability a block is faulty and not salvageable.
func (m *l2c2Mech) pBlockLost(vdd float64) float64 {
	return m.pBlockFaulty(vdd) * (1 - m.SalvageProb(vdd))
}

func (m *l2c2Mech) Yield(vdd float64) float64 {
	return gridYieldFromBlockFail(m.pBlockLost(vdd), m.s.FM.Geom.Ways, m.s.FM.Geom.Sets)
}

func (m *l2c2Mech) EffectiveCapacity(vdd float64) float64 {
	return 1 - m.pBlockLost(vdd)
}

// StaticPower: lost blocks are gated PCS-style (the CMPCS component
// model charges fault metadata and gates); salvaged blocks stay
// powered holding compressed lines; the compressor runs at nominal.
func (m *l2c2Mech) StaticPower(cm *cacti.Model, vdd float64) float64 {
	arr := m.s.CMPCS.StaticPower(vdd, m.EffectiveCapacity(vdd)).TotalW
	nomCells := float64(m.s.FM.Geom.Blocks() * m.s.FM.Geom.BlockBits)
	return arr + m.p.LogicPowerNomFrac*dataCellLeakW(cm, cm.Tech.VDDNom, nomCells)
}

func (m *l2c2Mech) MinVDDForYield(target, lo, hi float64) (float64, bool) {
	return faultmodel.MinVDD(lo, hi, func(v float64) bool { return m.Yield(v) >= target })
}

func (m *l2c2Mech) AreaOverhead() AreaOverhead {
	return AreaOverhead{
		Fraction: m.p.AreaOverheadFrac,
		Detail:   "compressor/decompressor + per-subblock fault metadata",
	}
}

// Tables renders the scheme-specific salvage study per voltage.
func (m *l2c2Mech) Tables(lo, hi float64) []*report.Table {
	t := report.NewTable(
		fmt.Sprintf("L2C2 compressed-block salvaging (%s): recovered capacity vs VDD", m.s.Org.Name),
		"VDD (V)", "Block-fault prob", "Salvage prob", "Capacity", "Yield")
	for _, v := range faultmodel.Grid(lo, hi) {
		t.AddRow(fmt.Sprintf("%.2f", v),
			fmt.Sprintf("%.4f", m.pBlockFaulty(v)),
			fmt.Sprintf("%.4f", m.SalvageProb(v)),
			fmt.Sprintf("%.4f", m.EffectiveCapacity(v)),
			fmt.Sprintf("%.4f", m.Yield(v)))
	}
	return []*report.Table{t}
}
