package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/cpusim"
	"repro/internal/expers"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/version"
)

// simCommand is the Fig. 4 architectural simulation: the 16 SPEC-like
// workloads under baseline, SPCS and DPCS for system Configs A and B —
// the old pcs-sim binary as a subcommand. -bench narrows the grid to
// one workload and prints each cell's result lines instead of the
// Fig. 4 tables. Results go to stdout, progress to stderr.
func simCommand(stdout io.Writer) *cli.Command {
	var (
		spec     string
		cfgSel   string
		instr    uint64
		warmup   uint64
		seed     uint64
		bench    string
		configs  bool
		csv      bool
		quiet    bool
		workers  int
		runsRoot string
		cacheDir string
		prof     profiler
	)
	return &cli.Command{
		Name:    "sim",
		Summary: "run the Fig. 4 simulation grid (16 workloads x baseline/SPCS/DPCS)",
		Usage:   "[-spec file] [-config A|B|both] [-instr N] [-bench name] [flags]",
		SetFlags: func(fs *flag.FlagSet) {
			fs.StringVar(&spec, "spec", "", "experiment spec file (JSON) with a \"sim\" section")
			fs.StringVar(&cfgSel, "config", "both", "system configuration: A, B or both")
			fs.Uint64Var(&instr, "instr", 24_000_000, "measured instructions per run")
			fs.Uint64Var(&warmup, "warmup", 2_000_000, "warm-up instructions (fast-forward)")
			fs.Uint64Var(&seed, "seed", 1, "seed for fault maps and workloads")
			fs.StringVar(&bench, "bench", "", "run a single named benchmark (e.g. mcf.s)")
			fs.BoolVar(&configs, "configs", false, "print Tables 1-2 style configuration and exit")
			fs.BoolVar(&csv, "csv", false, "emit CSV instead of aligned tables")
			fs.BoolVar(&quiet, "q", false, "suppress per-run progress lines")
			fs.IntVar(&workers, "workers", runtime.GOMAXPROCS(0), "parallel simulations (results are identical at any worker count)")
			fs.StringVar(&runsRoot, "runs", "", "archive grid campaign records (spans.jsonl records every DPCS decision) under this directory (e.g. runs)")
			fs.StringVar(&cacheDir, "cache", "", "content-addressed result cache directory (memoizes grid cells across runs)")
			prof.register(fs)
		},
		Run: func(fs *flag.FlagSet) error {
			if configs {
				return printConfigs(stdout)
			}
			stopProf, err := prof.start()
			if err != nil {
				return err
			}
			defer stopProf()
			if spec != "" {
				doc, err := config.Load(spec)
				if err != nil {
					return err
				}
				if doc.Sim == nil {
					return fmt.Errorf("%s: pcs sim needs a \"sim\" spec section", spec)
				}
				// Explicit flags override the spec; everything else comes
				// from the (defaulted) document.
				set := flagsSet(fs)
				if !set["config"] {
					cfgSel = doc.Sim.Config
				}
				if !set["bench"] {
					bench = doc.Sim.Bench
				}
				if !set["instr"] {
					instr = doc.Sim.SimInstr
				}
				if !set["warmup"] {
					warmup = doc.Sim.WarmupInstr
				}
				if !set["seed"] {
					seed = doc.Seed
				}
				if !set["workers"] && doc.Workers > 0 {
					workers = doc.Workers
				}
			}

			cfgs := []cpusim.SystemConfig{cpusim.ConfigA(), cpusim.ConfigB()}
			if !strings.EqualFold(strings.TrimSpace(cfgSel), "both") {
				cfg, err := cpusim.ConfigByName(cfgSel)
				if err != nil {
					return err
				}
				cfgs = []cpusim.SystemConfig{cfg}
			}
			opts := cpusim.RunOptions{WarmupInstr: warmup, SimInstr: instr, Seed: seed}
			workloads := trace.Suite()
			if bench != "" {
				w, ok := trace.ByName(bench)
				if !ok {
					return fmt.Errorf("unknown benchmark %q (known: %v)", bench, trace.Names())
				}
				workloads = []trace.Workload{w}
			}

			var progress io.Writer
			if !quiet {
				progress = os.Stderr
			}
			cache, err := openCache(cacheDir)
			if err != nil {
				return err
			}

			var total expers.GridStats
			for _, cfg := range cfgs {
				if progress != nil {
					fmt.Fprintf(progress, "config %s: %d benchmarks x 3 modes, %d instr each, %d workers\n",
						cfg.Name, len(workloads), opts.SimInstr, workers)
				}
				gopts := expers.GridOptions{
					Workers:     workers,
					Progress:    progress,
					Cache:       cache,
					CodeVersion: version.String(),
				}
				if runsRoot != "" {
					dir, err := runner.NewRunDir(filepath.Join(runsRoot, "fig4-"+cfg.Name))
					if err != nil {
						return err
					}
					gopts.ArtifactDir = dir
					fmt.Fprintf(os.Stderr, "pcs sim: config %s: recording campaign in %s\n", cfg.Name, dir)
				}
				data, stats, err := expers.Fig4GridWorkloads(context.Background(), cfg, workloads, opts, gopts)
				total.Cells += stats.Cells
				total.Cached += stats.Cached
				total.Computed += stats.Computed
				total.Failed += stats.Failed
				if err != nil {
					return err
				}
				if bench != "" {
					for _, row := range data.Rows {
						for _, r := range []cpusim.Result{row.Baseline, row.SPCS, row.DPCS} {
							printCell(stdout, r)
						}
					}
					continue
				}
				for _, t := range []*report.Table{
					expers.Fig4PowerTable(data, "L1"),
					expers.Fig4PowerTable(data, "L2"),
					expers.Fig4OverheadTable(data),
					expers.Fig4EnergyTable(data),
					expers.SummaryTable(expers.Summarise(data)),
				} {
					if err := renderTable(stdout, t, csv); err != nil {
						return err
					}
				}
			}
			// Summary goes to stderr: stdout carries only the results,
			// which golden files compare byte for byte.
			fmt.Fprintf(os.Stderr, "pcs sim: %d cells: %d cached, %d computed, %d failed\n",
				total.Cells, total.Cached, total.Computed, total.Failed)
			return nil
		},
	}
}

// flagsSet returns the names of flags explicitly present on the command
// line (or set from the environment), for spec-vs-flag precedence.
func flagsSet(fs *flag.FlagSet) map[string]bool {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// renderTable writes one table to w as text or CSV, matching the
// historical binaries' output byte for byte.
func renderTable(w io.Writer, t *report.Table, csv bool) error {
	if csv {
		if err := t.RenderCSV(w); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	}
	return t.Render(w)
}

// printCell writes one cell's result as a summary line and one line
// per cache.
func printCell(w io.Writer, r cpusim.Result) {
	fmt.Fprintln(w, r)
	for _, cr := range []cpusim.CacheResult{r.L1I, r.L1D, r.L2} {
		fmt.Fprintf(w, "  %-6s acc=%-9d miss=%-8d mr=%.4f wb=%-7d trans=%d E(mJ): static=%.4f dyn=%.4f\n",
			cr.Name, cr.Stats.Accesses, cr.Stats.Misses, cr.Stats.MissRate(),
			cr.Stats.Writebacks, cr.Transitions,
			cr.Energy.StaticJ*1e3, cr.Energy.DynamicJ*1e3)
	}
}

func printConfigs(w io.Writer) error {
	t := report.NewTable("System configurations (Table 2)", "Parameter", "Config A", "Config B")
	a, b := cpusim.ConfigA(), cpusim.ConfigB()
	row := func(name string, va, vb any) { t.AddRow(name, fmt.Sprint(va), fmt.Sprint(vb)) }
	row("Clock (GHz)", a.ClockHz/1e9, b.ClockHz/1e9)
	row("L1 size/assoc/hit", fmt.Sprintf("%dKB/%d/%dcyc", a.L1D.Org.SizeBytes>>10, a.L1D.Org.Assoc, a.L1D.HitCycles),
		fmt.Sprintf("%dKB/%d/%dcyc", b.L1D.Org.SizeBytes>>10, b.L1D.Org.Assoc, b.L1D.HitCycles))
	row("L2 size/assoc/hit", fmt.Sprintf("%dMB/%d/%dcyc", a.L2.Org.SizeBytes>>20, a.L2.Org.Assoc, a.L2.HitCycles),
		fmt.Sprintf("%dMB/%d/%dcyc", b.L2.Org.SizeBytes>>20, b.L2.Org.Assoc, b.L2.HitCycles))
	row("Block size (B)", a.L1D.Org.BlockBytes, b.L1D.Org.BlockBytes)
	row("Memory latency (cyc)", a.MemCycles, b.MemCycles)
	row("L1 interval (accesses)", a.L1D.Interval, b.L1D.Interval)
	row("L2 interval (accesses)", a.L2.Interval, b.L2.Interval)
	row("SuperInterval", a.SuperInterval, b.SuperInterval)
	row("Thresholds low/high", fmt.Sprintf("%v/%v", a.LowThreshold, a.HighThreshold),
		fmt.Sprintf("%v/%v", b.LowThreshold, b.HighThreshold))
	row("Voltage penalty (cyc)", a.L2.VoltagePenaltyCycles, b.L2.VoltagePenaltyCycles)
	return t.Render(w)
}
