package expers

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/report"
	"repro/internal/runner"
)

// AblationRow records one policy variant's outcome on one workload.
type AblationRow struct {
	Variant   string
	Workload  string
	SavingPct float64
	OverhdPct float64
	L2Trans   int
}

// AblationVariants enumerates the DPCS damping refinements of DESIGN.md
// §6 with exactly one disabled at a time, plus the full policy and the
// bare Listing-1 policy with everything off.
func AblationVariants() []struct {
	Name  string
	Flags core.AblationFlags
} {
	return []struct {
		Name  string
		Flags core.AblationFlags
	}{
		{"full policy", core.AblationFlags{}},
		{"-hold latch", core.AblationFlags{NoHoldLatch: true}},
		{"-bad-level memory", core.AblationFlags{NoBadLevelMemory: true}},
		{"-refill classification", core.AblationFlags{NoRefillClassification: true}},
		{"-skip reset", core.AblationFlags{NoSkipReset: true}},
		{"bare Listing 1", core.AblationFlags{
			NoHoldLatch: true, NoBadLevelMemory: true,
			NoRefillClassification: true, NoSkipReset: true,
		}},
	}
}

// AblationRows assembles the ablation study's rows from its job
// results, in AblationStudy's job order: per workload, the baseline
// cell followed by one DPCS cell per AblationVariants entry. Each row
// reports a variant's energy saving and execution overhead against its
// workload's baseline.
func AblationRows(results []runner.JobResult) ([]AblationRow, error) {
	variants := AblationVariants()
	per := 1 + len(variants)
	if len(results)%per != 0 {
		return nil, fmt.Errorf("expers: ablation needs %d results per workload, got %d", per, len(results))
	}
	var rows []AblationRow
	for i := 0; i < len(results); i += per {
		base, err := jobOutput[cpusim.Result](results, i)
		if err != nil {
			return nil, err
		}
		for j, v := range variants {
			r, err := jobOutput[cpusim.Result](results, i+1+j)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{
				Variant:   v.Name,
				Workload:  base.Workload,
				SavingPct: (1 - r.TotalCacheEnergyJ/base.TotalCacheEnergyJ) * 100,
				OverhdPct: (float64(r.Cycles)/float64(base.Cycles) - 1) * 100,
				L2Trans:   r.L2.Transitions,
			})
		}
	}
	return rows, nil
}

// AblationTable renders the ablation study from its rows.
func AblationTable(rows []AblationRow) *report.Table {
	t := report.NewTable("DPCS policy ablation (Config A)",
		"Variant", "Workload", "Energy saving %", "Exec overhead %", "L2 transitions")
	for _, row := range rows {
		t.AddRow(row.Variant, row.Workload,
			fmt.Sprintf("%.1f", row.SavingPct),
			fmt.Sprintf("%.2f", row.OverhdPct),
			row.L2Trans)
	}
	return t
}
