package expers

import (
	"fmt"
	"math"

	"repro/internal/faultmodel"
	"repro/internal/report"
	"repro/internal/sram"
)

// CellRow compares one bit-cell design on the L1-A geometry: the min-VDD
// it reaches without any fault tolerance, with the PCS mechanism on top,
// and its area/leakage cost — quantifying the paper's Sec. 2 argument
// that 6T + PCS beats hardened cells on cost.
type CellRow struct {
	Cell              sram.CellType
	AreaFactor        float64
	LeakFactor        float64
	MinVDDNoFT        float64 // 99% yield with zero tolerated faults
	MinVDDWithPCS     float64 // 99% yield under the set constraint
	SPCSVoltage       float64 // the 99%-capacity point
	StaticPowerAtSPCS float64 // relative to 6T nominal (leakage factor applied)
}

// CellGeometry is the canonical bit-cell study geometry: the Config-A
// L1 cache (64 KB, 4-way, 64 B blocks).
func CellGeometry() faultmodel.Geometry {
	return faultmodel.Geometry{Sets: 256, Ways: 4, BlockBits: 512}
}

// cellComparison computes the bit-cell comparison on a geometry (see
// the memoizing CellComparison/CellComparisonFor wrappers in memos.go).
func cellComparison(geom faultmodel.Geometry) ([]CellRow, *report.Table, error) {
	base := sram.NewWangCalhounBER()
	var rows []CellRow
	for _, ct := range []sram.CellType{sram.Cell6T, sram.Cell8T, sram.Cell10T} {
		p := sram.Cells(ct)
		ber := sram.ForCell(base, ct)
		fm, err := faultmodel.New(geom, ber)
		if err != nil {
			return nil, nil, err
		}
		row := CellRow{Cell: ct, AreaFactor: p.AreaFactor, LeakFactor: p.LeakageFactor}
		// No fault tolerance: the whole array must be clean.
		nbits := geom.Blocks() * geom.BlockBits
		if v, ok := faultmodel.MinVDD(VLo, VHi, func(v float64) bool {
			return 1-faultmodel.PFailBits(ber.BER(v), nbits) >= 0.99
		}); ok {
			row.MinVDDNoFT = v
		}
		if v, ok := fm.MinVDDForYield(0.99, VLo, VHi); ok {
			row.MinVDDWithPCS = v
		}
		if v, ok := fm.MinVDDForCapacity(0.99, 0.99, VLo, VHi); ok {
			row.SPCSVoltage = v
		}
		// Relative static power at the SPCS point vs a 6T cell at 1.0 V:
		// leakage factor x exponential VDD dependence x V.
		if row.SPCSVoltage > 0 {
			v := row.SPCSVoltage
			row.StaticPowerAtSPCS = p.LeakageFactor * v * math.Pow(10, 1.5*(v-1.0))
		}
		rows = append(rows, row)
	}
	return rows, CellTable(rows), nil
}

// CellTable renders the bit-cell comparison from its rows.
func CellTable(rows []CellRow) *report.Table {
	t := report.NewTable("Bit-cell designs vs PCS (L1 Config A, 99% yield)",
		"Cell", "Area x", "Leak x", "MinVDD no-FT", "MinVDD +PCS", "SPCS VDD", "Rel. SPCS leak")
	for _, row := range rows {
		t.AddRow(row.Cell.String(),
			fmt.Sprintf("%.2f", row.AreaFactor),
			fmt.Sprintf("%.2f", row.LeakFactor),
			fmtV(row.MinVDDNoFT), fmtV(row.MinVDDWithPCS), fmtV(row.SPCSVoltage),
			fmt.Sprintf("%.3f", row.StaticPowerAtSPCS))
	}
	return t
}

func fmtV(v float64) string {
	if v == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", v)
}
