package expers

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Fig4Row holds one benchmark's results for all three modes under one
// system configuration — the raw material of Fig. 4's eight panels.
type Fig4Row struct {
	Workload string
	Baseline cpusim.Result
	SPCS     cpusim.Result
	DPCS     cpusim.Result
}

// ExecOverhead returns a mode's execution-time overhead vs baseline.
func (r Fig4Row) ExecOverhead(m core.Mode) float64 {
	base := float64(r.Baseline.Cycles)
	switch m {
	case core.SPCS:
		return float64(r.SPCS.Cycles)/base - 1
	case core.DPCS:
		return float64(r.DPCS.Cycles)/base - 1
	default:
		return 0
	}
}

// EnergySaving returns a mode's total-cache-energy saving vs baseline.
func (r Fig4Row) EnergySaving(m core.Mode) float64 {
	switch m {
	case core.SPCS:
		return 1 - r.SPCS.TotalCacheEnergyJ/r.Baseline.TotalCacheEnergyJ
	case core.DPCS:
		return 1 - r.DPCS.TotalCacheEnergyJ/r.Baseline.TotalCacheEnergyJ
	default:
		return 0
	}
}

// Fig4Data is the full simulation result set for one configuration.
type Fig4Data struct {
	Config string
	Rows   []Fig4Row
}

// Fig4CellParams parameterise one "fig4-cell" job: a single
// workload × mode cell of the Fig. 4 grid. Unlike CPUSimParams (which
// names a canned config), the cell embeds its full SystemConfig, so the
// parameter document completely determines the simulation — the
// property that makes cells content-addressable in the result store.
type Fig4CellParams struct {
	Config      cpusim.SystemConfig `json:"config"`
	Mode        string              `json:"mode"`
	Bench       string              `json:"bench"`
	WarmupInstr uint64              `json:"warmup_instr,omitempty"`
	SimInstr    uint64              `json:"sim_instr"`
	// Seed pins the run when non-zero; zero uses the derived job seed.
	Seed uint64 `json:"seed,omitempty"`
}

// ApplyDefaults is a no-op: fig4-cell documents are machine-written by
// Fig4Grid and fully explicit, including the embedded SystemConfig.
func (p *Fig4CellParams) ApplyDefaults() {}

// Validate checks the cell document is runnable.
func (p *Fig4CellParams) Validate() error {
	if _, err := modeByName(p.Mode); err != nil {
		return err
	}
	if _, ok := trace.ByName(p.Bench); !ok {
		return fmt.Errorf("expers: unknown benchmark %q (known: %v)", p.Bench, trace.Names())
	}
	if p.SimInstr == 0 {
		return fmt.Errorf("expers: fig4-cell job needs sim_instr > 0")
	}
	return nil
}

// runFig4CellJob executes one grid cell, returning the full
// cpusim.Result (the power tables need per-cache detail CPUSimOutput
// does not carry).
func runFig4CellJob(ctx context.Context, seed uint64, params json.RawMessage) (any, error) {
	var p Fig4CellParams
	if err := decodeParams(params, &p); err != nil {
		return nil, err
	}
	mode, err := modeByName(p.Mode)
	if err != nil {
		return nil, err
	}
	w, ok := trace.ByName(p.Bench)
	if !ok {
		return nil, fmt.Errorf("expers: unknown benchmark %q (known: %v)", p.Bench, trace.Names())
	}
	if p.SimInstr == 0 {
		return nil, fmt.Errorf("expers: fig4-cell job needs sim_instr > 0")
	}
	if p.Seed != 0 {
		seed = p.Seed
	}
	return cpusim.RunContext(ctx, p.Config, mode, w, cpusim.RunOptions{
		WarmupInstr: p.WarmupInstr,
		SimInstr:    p.SimInstr,
		Seed:        seed,
		// Warm path: reuse this worker's simulation arena (nil when cold).
		Arena: arenaFromContext(ctx).simArena(),
	})
}

// GridOptions configure one Fig4Grid execution.
type GridOptions struct {
	// Workers sizes the pool; <= 0 uses GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one line per finished cell in
	// completion order.
	Progress io.Writer
	// Cache, when non-nil, memoizes cells content-addressed by their
	// parameter document, seed and CodeVersion.
	Cache runner.ResultCache
	// CodeVersion is the build identity for cache keys (version.String).
	CodeVersion string
	// ArtifactDir, when non-empty, archives the campaign there
	// (manifest, results, spans, ledger — see internal/runner); its
	// spans.jsonl feeds `pcs report -perfetto` and `pcs report -top`.
	ArtifactDir string
}

// GridStats is the cell accounting of one grid execution, for the
// CLI's end-of-run summary line.
type GridStats struct {
	Cells    int
	Cached   int
	Computed int
	Failed   int
}

// Fig4Grid runs the full-suite Fig. 4 grid through the campaign
// runner's registered "fig4-cell" kind, optionally memoized through a
// content-addressed result store: a repeated invocation with the same
// config, window and seed serves every cell from the cache and still
// assembles byte-identical Fig4Data.
func Fig4Grid(ctx context.Context, cfg cpusim.SystemConfig, opts cpusim.RunOptions, gopts GridOptions) (Fig4Data, GridStats, error) {
	return Fig4GridWorkloads(ctx, cfg, trace.Suite(), opts, gopts)
}

// Fig4GridWorkloads is Fig4Grid over an explicit workload list.
//
// Every cell is an independent simulation pinned to opts.Seed —
// cpusim's concurrency contract permits one System per goroutine — so
// the assembled Fig4Data is byte-identical to a serial cpusim.Run loop
// over the same cells regardless of worker count, completion order, or
// cache hits; only wall-clock time changes.
func Fig4GridWorkloads(ctx context.Context, cfg cpusim.SystemConfig, workloads []trace.Workload, opts cpusim.RunOptions, gopts GridOptions) (Fig4Data, GridStats, error) {
	modes := []core.Mode{core.Baseline, core.SPCS, core.DPCS}
	jobs := make([]runner.Spec, 0, len(workloads)*len(modes))
	for _, w := range workloads {
		for _, m := range modes {
			params, err := json.Marshal(Fig4CellParams{
				Config:      cfg,
				Mode:        m.String(),
				Bench:       w.Name,
				WarmupInstr: opts.WarmupInstr,
				SimInstr:    opts.SimInstr,
				Seed:        opts.Seed,
			})
			if err != nil {
				return Fig4Data{}, GridStats{}, err
			}
			jobs = append(jobs, runner.Spec{
				Kind:   "fig4-cell",
				Name:   fmt.Sprintf("%s/%s/%v", cfg.Name, w.Name, m),
				Params: params,
			})
		}
	}
	ropts := runner.Options{
		Workers:     gopts.Workers,
		Cache:       gopts.Cache,
		CodeVersion: gopts.CodeVersion,
		ArtifactDir: gopts.ArtifactDir,
	}
	if gopts.Progress != nil {
		ropts.OnResult = func(r runner.JobResult) {
			if r.Status == runner.StatusDone {
				fmt.Fprintf(gopts.Progress, "  %s\n", r.Output.(cpusim.Result))
			}
		}
	}
	cres, err := runner.Run(ctx, NewCampaignRegistry(),
		runner.Campaign{Name: "fig4-" + cfg.Name, Seed: opts.Seed, Jobs: jobs}, ropts)
	if err != nil {
		return Fig4Data{}, GridStats{}, err
	}
	stats := GridStats{
		Cells:    len(jobs),
		Cached:   cres.Cached,
		Computed: cres.Done - cres.Cached,
		Failed:   cres.Failed,
	}
	for _, r := range cres.Results {
		if r.Status != runner.StatusDone {
			return Fig4Data{}, stats, fmt.Errorf("expers: %s: %s", r.Name, r.Error)
		}
	}

	data := Fig4Data{Config: cfg.Name}
	for i, w := range workloads {
		data.Rows = append(data.Rows, Fig4Row{
			Workload: w.Name,
			Baseline: cres.Results[i*len(modes)+0].Output.(cpusim.Result),
			SPCS:     cres.Results[i*len(modes)+1].Output.(cpusim.Result),
			DPCS:     cres.Results[i*len(modes)+2].Output.(cpusim.Result),
		})
	}
	return data, stats, nil
}

// Summary aggregates a configuration's Fig. 4 data into the paper's
// headline numbers.
type Summary struct {
	Config string
	// Mean total-cache-energy savings vs baseline.
	MeanSavingSPCS, MeanSavingDPCS float64
	// Worst-case (max) execution time overheads.
	MaxOverheadSPCS, MaxOverheadDPCS float64
	// Mean DPCS energy reduction relative to SPCS.
	MeanDPCSvsSPCS float64
}

// Summarise reduces Fig. 4 data to its headline numbers.
func Summarise(d Fig4Data) Summary {
	s := Summary{Config: d.Config}
	var savS, savD, relDS []float64
	for _, r := range d.Rows {
		savS = append(savS, r.EnergySaving(core.SPCS))
		savD = append(savD, r.EnergySaving(core.DPCS))
		relDS = append(relDS, 1-r.DPCS.TotalCacheEnergyJ/r.SPCS.TotalCacheEnergyJ)
		if ov := r.ExecOverhead(core.SPCS); ov > s.MaxOverheadSPCS {
			s.MaxOverheadSPCS = ov
		}
		if ov := r.ExecOverhead(core.DPCS); ov > s.MaxOverheadDPCS {
			s.MaxOverheadDPCS = ov
		}
	}
	s.MeanSavingSPCS = stats.Mean(savS)
	s.MeanSavingDPCS = stats.Mean(savD)
	s.MeanDPCSvsSPCS = stats.Mean(relDS)
	return s
}

// Fig4PowerTable renders the per-benchmark cache power panels (Fig. 4a–d)
// for the chosen cache level ("L1" merges L1I+L1D as the paper plots a
// single L1 bar; "L2" is the unified L2).
func Fig4PowerTable(d Fig4Data, level string) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Fig. 4 — %s cache power (mW), Config %s", level, d.Config),
		"Benchmark", "Baseline", "SPCS", "DPCS", "SPCS sav%", "DPCS sav%")
	pick := func(r cpusim.Result) float64 {
		if level == "L2" {
			return r.L2.AvgPowerW
		}
		return r.L1I.AvgPowerW + r.L1D.AvgPowerW
	}
	for _, row := range d.Rows {
		b, sp, dp := pick(row.Baseline), pick(row.SPCS), pick(row.DPCS)
		t.AddRow(row.Workload,
			fmt.Sprintf("%.2f", b*1e3), fmt.Sprintf("%.2f", sp*1e3), fmt.Sprintf("%.2f", dp*1e3),
			fmt.Sprintf("%.1f", (1-sp/b)*100), fmt.Sprintf("%.1f", (1-dp/b)*100))
	}
	return t
}

// Fig4OverheadTable renders the execution-time overhead panels (4e–f).
func Fig4OverheadTable(d Fig4Data) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Fig. 4 — execution time overhead (%%), Config %s", d.Config),
		"Benchmark", "SPCS %", "DPCS %")
	for _, row := range d.Rows {
		t.AddRow(row.Workload,
			fmt.Sprintf("%.2f", row.ExecOverhead(core.SPCS)*100),
			fmt.Sprintf("%.2f", row.ExecOverhead(core.DPCS)*100))
	}
	return t
}

// Fig4EnergyTable renders the normalised total cache energy panels
// (4g–h) plus per-benchmark savings.
func Fig4EnergyTable(d Fig4Data) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Fig. 4 — total cache energy (normalised), Config %s", d.Config),
		"Benchmark", "Baseline", "SPCS", "DPCS", "SPCS sav%", "DPCS sav%")
	for _, row := range d.Rows {
		b := row.Baseline.TotalCacheEnergyJ
		t.AddRow(row.Workload, "1.000",
			fmt.Sprintf("%.3f", row.SPCS.TotalCacheEnergyJ/b),
			fmt.Sprintf("%.3f", row.DPCS.TotalCacheEnergyJ/b),
			fmt.Sprintf("%.1f", row.EnergySaving(core.SPCS)*100),
			fmt.Sprintf("%.1f", row.EnergySaving(core.DPCS)*100))
	}
	return t
}

// SummaryTable renders the headline numbers.
func SummaryTable(s Summary) *report.Table {
	t := report.NewTable(fmt.Sprintf("Headline summary, Config %s", s.Config), "Metric", "Value")
	t.AddRow("Mean SPCS energy saving", fmt.Sprintf("%.1f %%", s.MeanSavingSPCS*100))
	t.AddRow("Mean DPCS energy saving", fmt.Sprintf("%.1f %%", s.MeanSavingDPCS*100))
	t.AddRow("Mean DPCS saving vs SPCS", fmt.Sprintf("%.1f %%", s.MeanDPCSvsSPCS*100))
	t.AddRow("Max SPCS exec overhead", fmt.Sprintf("%.2f %%", s.MaxOverheadSPCS*100))
	t.AddRow("Max DPCS exec overhead", fmt.Sprintf("%.2f %%", s.MaxOverheadDPCS*100))
	return t
}
