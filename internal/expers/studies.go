package expers

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/mechanism"
	"repro/internal/report"
	"repro/internal/runner"
)

// This file defines the design-space studies around the paper's
// mechanism (Sec. 3.1 and Sec. 5 future work) as reusable Study values:
// a campaign job list plus a renderer from the job results back to the
// study's table. The pcs CLI runs them locally through internal/runner;
// internal/config expands the same job lists for remote submission, so a
// sweep spec runs identically on a pcs-server.
//
// The grids, job names and table formats are stable: sweep_output.txt is
// the committed golden rendering (fixed seeds, fixed grids).

// Study is one named design-space study: the jobs that compute it and
// the table that presents it.
type Study struct {
	// Name labels the study's campaign (and its runs/<name>/ artifacts).
	Name string
	// Jobs is the campaign job list, in grid order.
	Jobs []runner.Spec
	// Table renders the study from its per-job results, which must be in
	// job order with every job done.
	Table func(results []runner.JobResult) (*report.Table, error)
}

// newSpec builds a runner.Spec, marshalling the kind's parameter
// struct. Marshalling a parameter struct cannot fail.
func newSpec(kind, name string, params any) runner.Spec {
	raw, err := json.Marshal(params)
	if err != nil {
		panic(fmt.Sprintf("expers: marshal %s params: %v", kind, err))
	}
	return runner.Spec{Kind: kind, Name: name, Params: raw}
}

// jobOutput asserts job i of results completed and returns its output.
func jobOutput[T any](results []runner.JobResult, i int) (T, error) {
	var zero T
	if i >= len(results) {
		return zero, fmt.Errorf("expers: study needs %d results, got %d", i+1, len(results))
	}
	r := results[i]
	if r.Status != runner.StatusDone {
		return zero, fmt.Errorf("expers: job %d (%s) %s: %s", r.Index, r.Name, r.Status, r.Error)
	}
	out, ok := r.Output.(T)
	if !ok {
		return zero, fmt.Errorf("expers: job %d (%s) output is %T, want %T", r.Index, r.Name, r.Output, zero)
	}
	return out, nil
}

// AssocStudy reproduces the Sec. 3.1 claim: "Higher associativity and/or
// smaller block sizes naturally result in lower min-VDD". The 20-point
// geometry grid runs as one campaign of analytical "minvdd" jobs.
func AssocStudy() Study {
	blocks := []int{16, 32, 64, 128}
	ways := []int{1, 2, 4, 8, 16}
	var jobs []runner.Spec
	for _, blockB := range blocks {
		for _, w := range ways {
			jobs = append(jobs, newSpec("minvdd", fmt.Sprintf("%dB/%dway", blockB, w), MinVDDParams{
				SizeBytes: 64 << 10, Ways: w, BlockBytes: blockB,
				Yield: 0.99, VMin: 0.30, VMax: 1.00,
			}))
		}
	}
	return Study{
		Name: "assoc",
		Jobs: jobs,
		Table: func(results []runner.JobResult) (*report.Table, error) {
			t := report.NewTable("Min-VDD (99% yield) vs associativity and block size, 64 KB cache",
				"Block (B)", "1-way", "2-way", "4-way", "8-way", "16-way")
			i := 0
			for _, blockB := range blocks {
				row := []any{blockB}
				for range ways {
					out, err := jobOutput[MinVDDOutput](results, i)
					if err != nil {
						return nil, err
					}
					i++
					if !out.OK {
						row = append(row, "n/a")
						continue
					}
					row = append(row, fmt.Sprintf("%.2f", out.MinVDD))
				}
				t.AddRow(row...)
			}
			return t, nil
		},
	}
}

// LevelsStudy shows the fault-map cost and SPCS-point power as the
// number of allowed VDD levels grows ("our fault map approach should
// scale well for more voltage levels"), one "vddlevels" job per count.
func LevelsStudy() Study {
	counts := []int{1, 2, 3, 7, 15}
	var jobs []runner.Spec
	for _, n := range counts {
		jobs = append(jobs, newSpec("vddlevels", fmt.Sprintf("levels=%d", n), VDDLevelsParams{Levels: n}))
	}
	return Study{
		Name: "levels",
		Jobs: jobs,
		Table: func(results []runner.JobResult) (*report.Table, error) {
			t := report.NewTable("VDD level count vs fault-map size and SPCS static power (L1-A)",
				"Levels N", "FM bits/block", "Static power @ SPCS point (mW)")
			for i := range counts {
				out, err := jobOutput[VDDLevelsOutput](results, i)
				if err != nil {
					return nil, err
				}
				t.AddRow(out.Levels, out.FMBitsPerBlock, fmt.Sprintf("%.3f", out.StaticPowerW*1e3))
			}
			return t, nil
		},
	}
}

// CellsStudy compares bit-cell designs (paper Sec. 2: hardened 8T/10T
// cells vs 6T + the proposed mechanism) as one "cells" job.
func CellsStudy() Study {
	return Study{
		Name: "cells",
		Jobs: []runner.Spec{newSpec("cells", "cells", CellsParams{})},
		Table: func(results []runner.JobResult) (*report.Table, error) {
			rows, err := jobOutput[[]CellRow](results, 0)
			if err != nil {
				return nil, err
			}
			return CellTable(rows), nil
		},
	}
}

// LeakageStudy compares the Sec.-2 leakage-reduction baselines with SPCS
// as one "leakage" job pinned to the given seed.
func LeakageStudy(instr, seed uint64) Study {
	return Study{
		Name: "leakage",
		Jobs: []runner.Spec{newSpec("leakage", "leakage", LeakageParams{SimInstr: instr, Seed: seed})},
		Table: func(results []runner.JobResult) (*report.Table, error) {
			rows, err := jobOutput[[]LeakageRow](results, 0)
			if err != nil {
				return nil, err
			}
			return LeakageTable(rows), nil
		},
	}
}

// AblationStudy disables the DPCS damping refinements one at a time
// (DESIGN.md §6) under Config A, over opts' window and seed: for each
// workload, one baseline cell and one DPCS cell per AblationVariants
// entry with its Ablate flags set, every cell a "fig4-cell" job. nil
// workloads means the cache-friendly/capacity-cliff pair hmmer.s and
// sjeng.s. An unknown workload fails its cells, and so the study.
func AblationStudy(workloads []string, opts cpusim.RunOptions) Study {
	if workloads == nil {
		workloads = []string{"hmmer.s", "sjeng.s"}
	}
	var jobs []runner.Spec
	for _, bench := range workloads {
		jobs = append(jobs, newSpec("fig4-cell", bench+"/baseline",
			fig4Cell(cpusim.ConfigA(), core.Baseline, bench, opts)))
		for _, v := range AblationVariants() {
			cfg := cpusim.ConfigA()
			cfg.Ablate = v.Flags
			jobs = append(jobs, newSpec("fig4-cell", bench+"/"+v.Name, fig4Cell(cfg, core.DPCS, bench, opts)))
		}
	}
	return Study{
		Name: "ablate",
		Jobs: jobs,
		Table: func(results []runner.JobResult) (*report.Table, error) {
			rows, err := AblationRows(results)
			if err != nil {
				return nil, err
			}
			return AblationTable(rows), nil
		},
	}
}

// DPCSStudy measures policy sensitivity: energy saving and overhead as
// the sampling interval and escape budget vary. The baseline cell and
// the 9-cell parameter grid form one campaign of "fig4-cell" jobs, each
// DPCS cell with its L2 interval and thresholds set on Config A; every
// cell pins seed so all runs share fault maps and stay directly
// comparable.
func DPCSStudy(bench string, instr uint64, seed uint64) Study {
	intervals := []uint64{2_000, 10_000, 50_000}
	threshes := []float64{0.01, 0.03, 0.10}
	opts := cpusim.RunOptions{WarmupInstr: instr / 4, SimInstr: instr, Seed: seed}
	jobs := []runner.Spec{newSpec("fig4-cell", "baseline", fig4Cell(cpusim.ConfigA(), core.Baseline, bench, opts))}
	for _, interval := range intervals {
		for _, ht := range threshes {
			cfg := cpusim.ConfigA()
			cfg.L2.Interval = interval
			cfg.HighThreshold = ht
			cfg.LowThreshold = ht / 2
			jobs = append(jobs, newSpec("fig4-cell", fmt.Sprintf("int=%d ht=%.2f", interval, ht), fig4Cell(cfg, core.DPCS, bench, opts)))
		}
	}
	return Study{
		Name: "dpcs",
		Jobs: jobs,
		Table: func(results []runner.JobResult) (*report.Table, error) {
			baseOut, err := jobOutput[cpusim.Result](results, 0)
			if err != nil {
				return nil, err
			}
			t := report.NewTable(
				fmt.Sprintf("DPCS parameter sensitivity on %s (Config A, %d instr)", bench, instr),
				"L2 interval", "High thresh", "Energy saving %", "Exec overhead %", "L2 transitions")
			i := 1
			for _, interval := range intervals {
				for _, ht := range threshes {
					out, err := jobOutput[cpusim.Result](results, i)
					if err != nil {
						return nil, err
					}
					i++
					t.AddRow(interval, ht,
						fmt.Sprintf("%.1f", (1-out.TotalCacheEnergyJ/baseOut.TotalCacheEnergyJ)*100),
						fmt.Sprintf("%.2f", (float64(out.Cycles)/float64(baseOut.Cycles)-1)*100),
						out.L2.Transitions)
				}
			}
			return t, nil
		},
	}
}

// MechStudy compares registered fault-tolerance mechanisms on the
// Config-A L1 cache: one "mechminvdd" job per mechanism, in registry
// rank order. names selects mechanisms as in `pcs analytical
// -mechanisms`; nil compares every registered mechanism (not just the
// paper's default set — the study is the registry's summary view).
func MechStudy(names []string) (Study, error) {
	sel := names
	if len(sel) == 0 {
		sel = mechanism.Names()
	}
	ds, err := mechanism.Resolve(sel)
	if err != nil {
		return Study{}, err
	}
	var jobs []runner.Spec
	for _, d := range ds {
		jobs = append(jobs, newSpec("mechminvdd", d.Name, MechMinVDDParams{
			Org: "l1a", Mechanism: d.Name, MechVersion: d.Version,
			NLowVDDs: 2, Yield: 0.99, VMin: VLo, VMax: VHi,
		}))
	}
	return Study{
		Name: "mechs",
		Jobs: jobs,
		Table: func(results []runner.JobResult) (*report.Table, error) {
			t := report.NewTable("Fault-tolerance mechanisms at 99% yield (L1-A)",
				"Mechanism", "Version", "Min VDD (V)", "Capacity", "Static mW", "Area +%")
			for i := range ds {
				out, err := jobOutput[MechMinVDDOutput](results, i)
				if err != nil {
					return nil, err
				}
				minV, capacity, power := "n/a", "n/a", "n/a"
				if out.OK {
					minV = fmt.Sprintf("%.2f", out.MinVDD)
					capacity = fmt.Sprintf("%.4f", out.CapacityAtMin)
					power = fmt.Sprintf("%.3f", out.StaticPowerAtMinW*1e3)
				}
				t.AddRow(out.Label, out.MechVersion, minV, capacity, power,
					fmt.Sprintf("%.2f", out.AreaOverheadFrac*100))
			}
			return t, nil
		},
	}, nil
}

// StudyNames is the canonical study order of a full sweep — the order
// the historical pcs-sweep binary ran them in, plus the mechanism
// registry summary.
func StudyNames() []string {
	return []string{"assoc", "levels", "cells", "leakage", "dpcs", "ablate", "mechs"}
}

// StudyByName builds the named study with the given workload and window
// parameters (used by the dpcs/leakage/ablate studies; ignored by the
// analytical ones).
func StudyByName(name, bench string, instr, seed uint64) (Study, error) {
	switch name {
	case "assoc":
		return AssocStudy(), nil
	case "levels":
		return LevelsStudy(), nil
	case "cells":
		return CellsStudy(), nil
	case "leakage":
		return LeakageStudy(instr, seed), nil
	case "dpcs":
		return DPCSStudy(bench, instr, seed), nil
	case "ablate":
		return AblationStudy(nil, cpusim.RunOptions{WarmupInstr: instr / 4, SimInstr: instr, Seed: seed}), nil
	case "mechs":
		return MechStudy(nil)
	default:
		return Study{}, fmt.Errorf("expers: unknown study %q (known: %v)", name, StudyNames())
	}
}
