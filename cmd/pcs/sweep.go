package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/expers"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/version"
)

// sweepCommand explores the design space around the paper's mechanism —
// the old pcs-sweep binary as a subcommand. Studies always run in the
// canonical order (assoc, levels, cells, leakage, dpcs, ablate, mechs)
// whichever way they are selected, so output stays comparable across
// invocations. Tables go to stdout, progress and summaries to stderr.
func sweepCommand(stdout, stderr io.Writer) *cli.Command {
	var (
		spec     string
		study    = make(map[string]*bool, len(expers.StudyNames()))
		bench    string
		instr    uint64
		seed     uint64
		workers  int
		jsonOut  bool
		runsRoot string
		progress bool
		cacheDir string
		mechsCSV string
		prof     profiler
	)
	summaries := map[string]string{
		"assoc":   "sweep associativity and block size vs min-VDD",
		"levels":  "sweep the number of VDD levels",
		"cells":   "compare 6T/8T/10T bit cells with and without PCS",
		"leakage": "compare drowsy/decay/SPCS leakage techniques",
		"dpcs":    "sweep DPCS policy parameters",
		"ablate":  "run the DPCS policy ablation study",
		"mechs":   "compare registered fault-tolerance mechanisms at 99% yield",
	}
	return &cli.Command{
		Name:    "sweep",
		Summary: "run the design-space studies (min-VDD geometry, VDD levels, cells, leakage, DPCS policy, ablation, mechanisms)",
		Usage:   "[-spec file] [-assoc] [-levels] [-cells] [-leakage] [-dpcs] [-ablate] [-mechs] [flags]",
		SetFlags: func(fs *flag.FlagSet) {
			fs.StringVar(&spec, "spec", "", "experiment spec file (JSON) with a \"sweep\" section")
			for _, name := range expers.StudyNames() {
				study[name] = fs.Bool(name, false, summaries[name])
			}
			fs.StringVar(&mechsCSV, "mechanisms", "",
				"comma-separated mechanism selection for -mechs (default: every registered mechanism)")
			fs.StringVar(&bench, "bench", "bzip2.s", "benchmark for -dpcs")
			fs.Uint64Var(&instr, "instr", 4_000_000, "instructions for -dpcs, -leakage and -ablate runs")
			fs.Uint64Var(&seed, "seed", 1, "seed pinned into the simulation-backed studies")
			fs.IntVar(&workers, "workers", 0, "campaign worker count (0 = GOMAXPROCS)")
			fs.BoolVar(&jsonOut, "json", false, "emit tables as JSON instead of text")
			fs.StringVar(&runsRoot, "runs", "", "archive campaign records under this directory (e.g. runs)")
			fs.BoolVar(&progress, "progress", false, "log campaign progress to stderr")
			fs.StringVar(&cacheDir, "cache", "", "content-addressed result cache directory (memoizes study cells across runs)")
			prof.register(fs)
		},
		Run: func(fs *flag.FlagSet) error {
			stopProf, err := prof.start()
			if err != nil {
				return err
			}
			defer stopProf()
			// Study selection: explicit flags beat the spec's list beats
			// "all of them".
			var selected []string
			for _, name := range expers.StudyNames() {
				if *study[name] {
					selected = append(selected, name)
				}
			}
			if spec != "" {
				doc, err := config.Load(spec)
				if err != nil {
					return err
				}
				if doc.Sweep == nil {
					return fmt.Errorf("%s: pcs sweep needs a \"sweep\" spec section", spec)
				}
				set := flagsSet(fs)
				if len(selected) == 0 {
					selected = doc.Sweep.Studies
				}
				if !set["bench"] {
					bench = doc.Sweep.Bench
				}
				if !set["instr"] {
					instr = doc.Sweep.SimInstr
				}
				if !set["seed"] {
					seed = doc.Seed
				}
				if !set["workers"] && doc.Workers > 0 {
					workers = doc.Workers
				}
				if !set["mechanisms"] && len(doc.Sweep.Mechanisms) > 0 {
					mechsCSV = strings.Join(doc.Sweep.Mechanisms, ",")
				}
			}
			mechNames, err := parseMechanisms(mechsCSV)
			if err != nil {
				return err
			}
			if len(selected) == 0 {
				selected = expers.StudyNames()
			}
			cache, err := openCache(cacheDir)
			if err != nil {
				return err
			}
			h := &sweepHarness{
				reg:      expers.NewCampaignRegistry(),
				stdout:   stdout,
				stderr:   stderr,
				workers:  workers,
				jsonOut:  jsonOut,
				runsRoot: runsRoot,
				progress: progress,
				cache:    cache,
			}
			// Canonical order regardless of selection order.
			for _, name := range expers.StudyNames() {
				if !contains(selected, name) {
					continue
				}
				var st expers.Study
				if name == "mechs" && mechNames != nil {
					st, err = expers.MechStudy(mechNames)
				} else {
					st, err = expers.StudyByName(name, bench, instr, seed)
				}
				if err != nil {
					return err
				}
				results, err := h.runCampaign(st.Name, seed, st.Jobs)
				if err != nil {
					return err
				}
				t, err := st.Table(results)
				if err != nil {
					return err
				}
				if err := h.emit(t); err != nil {
					return err
				}
			}
			fmt.Fprintf(stderr, "pcs sweep: %d cells: %d cached, %d computed, %d failed\n",
				h.cells, h.cached, h.computed, h.failed)
			return nil
		},
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// sweepHarness bundles the options shared by every study's campaign,
// and accumulates the cell accounting for the end-of-run summary.
type sweepHarness struct {
	reg      *runner.Registry
	stdout   io.Writer
	stderr   io.Writer
	workers  int
	jsonOut  bool
	runsRoot string
	progress bool
	cache    runner.ResultCache

	cells, cached, computed, failed int
}

// emit renders a table in the selected output format.
func (h *sweepHarness) emit(t *report.Table) error {
	if h.jsonOut {
		return t.RenderJSON(h.stdout)
	}
	return t.Render(h.stdout)
}

// runCampaign fans the jobs out across the worker pool and returns the
// per-job results in job order, failing on any failed job.
func (h *sweepHarness) runCampaign(name string, seed uint64, jobs []runner.Spec) ([]runner.JobResult, error) {
	opts := runner.Options{Workers: h.workers, Cache: h.cache, CodeVersion: version.String()}
	if h.runsRoot != "" {
		dir, err := runner.NewRunDir(filepath.Join(h.runsRoot, name))
		if err != nil {
			return nil, err
		}
		opts.ArtifactDir = dir
	}
	if h.progress {
		opts.OnProgress = func(p runner.Progress) {
			fmt.Fprintf(h.stderr, "pcs sweep: %s: %d/%d done (%.1f jobs/s, ETA %s)\n",
				name, p.Completed(), p.Total, p.JobsPerSec, p.ETA.Round(1e8))
		}
	}
	res, err := runner.Run(context.Background(), h.reg, runner.Campaign{Name: name, Seed: seed, Jobs: jobs}, opts)
	if err != nil {
		return nil, err
	}
	h.cells += len(res.Results)
	h.cached += res.Cached
	h.computed += res.Done - res.Cached
	h.failed += res.Failed
	for _, r := range res.Results {
		if r.Status != runner.StatusDone {
			return nil, fmt.Errorf("campaign %s: job %d (%s) %s: %s", name, r.Index, r.Name, r.Status, r.Error)
		}
	}
	if res.ArtifactDir != "" {
		fmt.Fprintf(h.stderr, "pcs sweep: %s: records archived in %s\n", name, res.ArtifactDir)
	}
	return res.Results, nil
}
