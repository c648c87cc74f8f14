package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/expers"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/version"
)

// multicoreCommand runs the multi-core extension (the paper's Sec. 5
// future work): N cores with private power/capacity-scaled L1s over one
// shared, coherently-maintained, PCS-managed L2 — the old pcs-multicore
// binary as a subcommand. The core-count × policy grid goes through the
// same spec expansion the server uses, so a -spec file and the flag
// form produce identical campaigns.
func multicoreCommand() *cli.Command {
	var (
		spec      string
		coresFlag string
		bench     string
		instr     uint64
		warmup    uint64
		shared    float64
		cfgSel    string
		seed      uint64
		workers   int
		jsonOut   bool
		runsRoot  string
		progress  bool
		traceOn   bool
		cacheDir  string
	)
	return &cli.Command{
		Name:    "multicore",
		Summary: "run the multi-core extension (shared PCS-managed L2, core-count x policy grid)",
		Usage:   "[-spec file] [-cores 1,2,4] [-bench name] [-instr N] [flags]",
		SetFlags: func(fs *flag.FlagSet) {
			fs.StringVar(&spec, "spec", "", "experiment spec file (JSON) with a \"multicore\" section")
			fs.StringVar(&coresFlag, "cores", "1,2,4", "comma-separated core counts to sweep")
			fs.StringVar(&bench, "bench", "gobmk.s", "workload run on every core")
			fs.Uint64Var(&instr, "instr", 2_000_000, "measured instructions per core")
			fs.Uint64Var(&warmup, "warmup", 400_000, "warm-up instructions per core")
			fs.Float64Var(&shared, "shared", 0.10, "fraction of data accesses to the shared region")
			fs.StringVar(&cfgSel, "config", "A", "system configuration: A or B")
			fs.Uint64Var(&seed, "seed", 1, "seed")
			fs.IntVar(&workers, "workers", 0, "campaign worker count (0 = GOMAXPROCS)")
			fs.BoolVar(&jsonOut, "json", false, "emit the table as JSON instead of text")
			fs.StringVar(&runsRoot, "runs", "", "archive campaign records under this directory (e.g. runs)")
			fs.BoolVar(&progress, "progress", false, "log campaign progress to stderr")
			fs.BoolVar(&traceOn, "trace", false, "with -runs: record campaign trace spans (spans.jsonl, for pcs report -perfetto/-top)")
			fs.StringVar(&cacheDir, "cache", "", "content-addressed result cache directory (memoizes grid cells across runs)")
		},
		Run: func(fs *flag.FlagSet) error {
			set := flagsSet(fs)
			var ms *config.MulticoreSpec
			if spec != "" {
				doc, err := config.Load(spec)
				if err != nil {
					return err
				}
				if doc.Multicore == nil {
					return fmt.Errorf("%s: pcs multicore needs a \"multicore\" spec section", spec)
				}
				ms = doc.Multicore
				if !set["seed"] {
					seed = doc.Seed
				}
				if !set["workers"] && doc.Workers > 0 {
					workers = doc.Workers
				}
			} else {
				// The old binary's hard-wired shared-region size and
				// coherence penalty are the spec defaults.
				ms = &config.MulticoreSpec{}
			}
			if spec == "" || set["config"] {
				ms.Config = cfgSel
			}
			if spec == "" || set["bench"] {
				ms.Bench = bench
			}
			if spec == "" || set["instr"] {
				ms.InstrPerCore = instr
			}
			if spec == "" || set["warmup"] {
				ms.WarmupInstr = warmup
			}
			if spec == "" || set["shared"] {
				ms.SharedFrac = shared
			}
			if spec == "" || set["cores"] {
				var counts []int
				for _, p := range strings.Split(coresFlag, ",") {
					n, err := strconv.Atoi(strings.TrimSpace(p))
					if err != nil || n < 1 {
						return fmt.Errorf("bad core count %q", p)
					}
					counts = append(counts, n)
				}
				ms.Cores = counts
			}

			doc := &config.Document{Version: config.Version, Seed: seed, Multicore: ms}
			doc.ApplyDefaults()
			if err := doc.Validate(); err != nil {
				return err
			}
			camp, err := doc.ExpandCampaign()
			if err != nil {
				return err
			}

			cache, err := openCache(cacheDir)
			if err != nil {
				return err
			}
			if traceOn && runsRoot == "" {
				return fmt.Errorf("-trace needs -runs (spans.jsonl lives next to the campaign records)")
			}
			opts := runner.Options{Workers: workers, Cache: cache, CodeVersion: version.String()}
			if runsRoot != "" {
				dir, err := runner.NewRunDir(filepath.Join(runsRoot, "multicore"))
				if err != nil {
					return err
				}
				opts.ArtifactDir = dir
				opts.TraceSpans = traceOn
			}
			if progress {
				opts.OnProgress = func(p runner.Progress) {
					fmt.Fprintf(os.Stderr, "pcs multicore: %d/%d done (%.2f jobs/s, ETA %s)\n",
						p.Completed(), p.Total, p.JobsPerSec, p.ETA.Round(1e8))
				}
			}
			res, err := runner.Run(context.Background(), expers.NewCampaignRegistry(), camp, opts)
			if err != nil {
				return err
			}
			for _, r := range res.Results {
				if r.Status != runner.StatusDone {
					return fmt.Errorf("job %d (%s) %s: %s", r.Index, r.Name, r.Status, r.Error)
				}
			}
			if res.ArtifactDir != "" {
				fmt.Fprintf(os.Stderr, "pcs multicore: records archived in %s\n", res.ArtifactDir)
			}
			fmt.Fprintf(os.Stderr, "pcs multicore: %d cells: %d cached, %d computed, %d failed\n",
				len(res.Results), res.Cached, res.Done-res.Cached, res.Failed)

			w, _ := trace.ByName(ms.Bench)
			cfgName := strings.ToUpper(ms.Config)
			t := report.NewTable(
				fmt.Sprintf("Multi-core PCS: %s on Config %s, %d instr/core, %.0f%% shared data",
					w.Name, cfgName, ms.InstrPerCore, ms.SharedFrac*100),
				"Cores", "Policy", "Cycles (max core)", "Exec ovh %", "L2 misses", "Coh. invals",
				"Cache E (mJ)", "E saving %")
			i := 0
			for _, n := range ms.Cores {
				var baseCycles uint64
				var baseE float64
				for _, mode := range []string{"baseline", "SPCS", "DPCS"} {
					out := res.Results[i].Output.(expers.MulticoreOutput)
					i++
					if mode == "baseline" {
						baseCycles, baseE = out.GlobalCycles, out.TotalCacheEnergyJ
					}
					t.AddRow(n, out.Mode, out.GlobalCycles,
						fmt.Sprintf("%+.2f", (float64(out.GlobalCycles)/float64(baseCycles)-1)*100),
						out.L2Misses, out.CoherenceInvalidations,
						fmt.Sprintf("%.3f", out.TotalCacheEnergyJ*1e3),
						fmt.Sprintf("%.1f", (1-out.TotalCacheEnergyJ/baseE)*100))
				}
			}
			if jsonOut {
				return t.RenderJSON(os.Stdout)
			}
			return t.Render(os.Stdout)
		},
	}
}
