package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/expers"
	"repro/internal/obs/tracez"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/trace"
)

// reportCommand runs the complete reproduction — every analytical
// figure, the Fig. 4 simulation matrix, and the extension studies — and
// writes a single self-contained Markdown report with all tables
// inlined. It is the one-command answer to "regenerate the paper"; the
// old pcs-report binary as a subcommand.
//
// -quick shrinks the simulation windows ~10x for a fast smoke run; the
// full default takes tens of minutes. Three flags read a runs/<ts>/
// directory's spans.jsonl instead and exit (see DESIGN.md §11):
// -timeline RUNDIR renders each DPCS cell's VDD trajectory and its
// residency over the measured window from the policy's span instants,
// -perfetto RUNDIR converts the spans to a Chrome trace-event file
// loadable in Perfetto / chrome://tracing, and -top RUNDIR renders the
// run's per-cell resource attribution from its job spans. Tables and
// messages go to stdout, progress to stderr.
func reportCommand(stdout, stderr io.Writer) *cli.Command {
	var (
		out      string
		instr    uint64
		quick    bool
		timeline bool
		perfetto bool
		top      bool
		sortKey  string
		topN     int
	)
	return &cli.Command{
		Name:    "report",
		Summary: "run the full reproduction and write one Markdown report",
		Usage:   "[-o report.md] [-instr N] [-quick] [-timeline RUNDIR] [-perfetto RUNDIR] [-top RUNDIR [-sort key] [-n N]]",
		SetFlags: func(fs *flag.FlagSet) {
			fs.StringVar(&out, "o", "report.md", "output Markdown path (with -perfetto: trace output path, default RUNDIR/trace.json)")
			fs.Uint64Var(&instr, "instr", 24_000_000, "measured instructions per simulation run")
			fs.BoolVar(&quick, "quick", false, "use ~10x smaller simulation windows")
			fs.BoolVar(&timeline, "timeline", false, "render RUNDIR's DPCS VDD trajectories and residencies and exit")
			fs.BoolVar(&perfetto, "perfetto", false, "convert RUNDIR/spans.jsonl to a Chrome trace-event file and exit")
			fs.BoolVar(&top, "top", false, "render RUNDIR's per-cell resource attribution tables and exit")
			fs.StringVar(&sortKey, "sort", "cpu", "with -top: sort key (cpu, wall, energy)")
			fs.IntVar(&topN, "n", 15, "with -top: rows in the top-cells table (0 = all)")
		},
		Run: func(fs *flag.FlagSet) error {
			if quick {
				instr = 2_000_000
			}
			if timeline || perfetto || top {
				if fs.NArg() != 1 {
					return fmt.Errorf("-timeline/-perfetto/-top need exactly one run directory argument (got %d)", fs.NArg())
				}
				dir := fs.Arg(0)
				if timeline {
					return renderTimeline(stdout, dir)
				}
				if perfetto {
					dst := filepath.Join(dir, "trace.json")
					if flagsSet(fs)["o"] {
						dst = out
					}
					return exportPerfetto(stdout, dir, dst)
				}
				return renderTopCells(stdout, dir, sortKey, topN)
			}
			return writeReport(stdout, stderr, out, instr)
		},
	}
}

// exportPerfetto converts a run directory's spans.jsonl into a Chrome
// trace-event JSON file for Perfetto / chrome://tracing.
func exportPerfetto(stdout io.Writer, dir, dst string) error {
	spans, err := tracez.ReadFile(filepath.Join(dir, tracez.FileName))
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("%s: %s records no spans", dir, tracez.FileName)
	}
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	if err := tracez.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d spans to %s (load in https://ui.perfetto.dev or chrome://tracing)\n", len(spans), dst)
	return nil
}

// renderTopCells renders a run directory's per-cell resource
// attribution from its job spans: the top-N cells table plus per-kind
// totals.
func renderTopCells(stdout io.Writer, dir, sortKey string, n int) error {
	spans, err := tracez.ReadFile(filepath.Join(dir, tracez.FileName))
	if err != nil {
		return err
	}
	cells, err := report.CellsFromSpans(spans)
	if err != nil {
		return err
	}
	if len(cells) == 0 {
		return fmt.Errorf("%s: %s has no job spans", dir, tracez.FileName)
	}
	if err := report.SortCells(cells, sortKey); err != nil {
		return err
	}
	if err := report.TopCellsTable(cells, n).Render(stdout); err != nil {
		return err
	}
	return report.KindSummaryTable(cells).Render(stdout)
}

func writeReport(stdout, stderr io.Writer, out string, instr uint64) (err error) {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()

	start := time.Now()
	fmt.Fprintf(f, "# Power/Capacity Scaling — reproduction report\n\n")
	fmt.Fprintf(f, "Generated %s; %d measured instructions per simulation run.\n\n",
		time.Now().Format(time.RFC3339), instr)

	section := func(title string) { fmt.Fprintf(f, "## %s\n\n", title) }
	table := func(t *report.Table) error {
		fmt.Fprintln(f, "```")
		if err := t.Render(f); err != nil {
			return err
		}
		fmt.Fprintln(f, "```")
		fmt.Fprintln(f)
		return nil
	}
	// must keeps the section sequence flat: it renders the table unless
	// its producer already failed.
	must := func(t *report.Table, perr error) error {
		if perr != nil {
			return perr
		}
		return table(t)
	}

	section("Fig. 2 — SRAM bit error rate vs VDD")
	_, t2 := expers.Fig2()
	if err := table(t2); err != nil {
		return err
	}

	section("Fig. 3a — static power vs effective capacity (L1-A)")
	_, t3a, err := expers.Fig3aMechs(expers.L1ConfigA(), 2, nil)
	if err := must(t3a, err); err != nil {
		return err
	}
	for _, n := range []int{1, 2} {
		gap, err := expers.Fig3aGapAt99(expers.L1ConfigA(), n)
		if err != nil {
			return err
		}
		fmt.Fprintf(f, "Proposed vs FFT-Cache at 99%% capacity, %d VDD levels: **%.1f%% lower** (paper: %s)\n\n",
			n+1, gap*100, map[int]string{1: "17.8%", 2: "28.2%"}[n])
	}

	section("Fig. 3b — usable blocks vs VDD (L1-A)")
	_, t3b, err := expers.Fig3bMechs(expers.L1ConfigA(), nil)
	if err := must(t3b, err); err != nil {
		return err
	}

	section("Fig. 3c — leakage breakdown vs VDD (L1-A)")
	_, t3c, err := expers.Fig3c(expers.L1ConfigA())
	if err := must(t3c, err); err != nil {
		return err
	}

	section("Fig. 3d — yield vs VDD, five schemes (L1-A)")
	_, t3d, err := expers.Fig3dMechs(expers.L1ConfigA(), nil)
	if err := must(t3d, err); err != nil {
		return err
	}
	_, tmv, err := expers.MinVDDMechs(expers.L1ConfigA(), nil)
	if err := must(tmv, err); err != nil {
		return err
	}

	section("Area overheads (Sec. 4.2; paper: 2–5 %)")
	_, ta, err := expers.AreaOverheads()
	if err := must(ta, err); err != nil {
		return err
	}

	section("Computed voltage plans (Table 2)")
	_, tv, err := expers.VDDPlans()
	if err := must(tv, err); err != nil {
		return err
	}

	section("Bit-cell comparison (Sec. 2 related work)")
	_, tc, err := expers.CellComparison()
	if err := must(tc, err); err != nil {
		return err
	}

	section("Leakage-technique comparison (Sec. 2 related work)")
	_, tl, err := expers.LeakageComparison(minU(instr, 2_000_000), 1)
	if err := must(tl, err); err != nil {
		return err
	}

	section("Fig. 4 — simulation (16 benchmarks x baseline/SPCS/DPCS)")
	opts := cpusim.RunOptions{WarmupInstr: maxU(instr/12, 500_000), SimInstr: instr, Seed: 1}
	for _, cfg := range []cpusim.SystemConfig{cpusim.ConfigA(), cpusim.ConfigB()} {
		fmt.Fprintf(stderr, "simulating Config %s (%d instr x 48 runs)...\n", cfg.Name, instr)
		data, _, err := expers.Fig4Grid(context.Background(), cfg, opts, expers.GridOptions{Progress: stderr})
		if err != nil {
			return err
		}
		for _, t := range []*report.Table{
			expers.Fig4PowerTable(data, "L1"),
			expers.Fig4PowerTable(data, "L2"),
			expers.Fig4OverheadTable(data),
			expers.Fig4EnergyTable(data),
			expers.SummaryTable(expers.Summarise(data)),
		} {
			if err := table(t); err != nil {
				return err
			}
		}
		_, ts := expers.SystemWide(data, expers.DefaultSystemModel())
		if err := table(ts); err != nil {
			return err
		}
	}

	section("DPCS policy ablation (DESIGN.md §6)")
	st := expers.AblationStudy(nil, cpusim.RunOptions{WarmupInstr: opts.WarmupInstr, SimInstr: minU(instr, 8_000_000), Seed: 1})
	res, err := runner.Run(context.Background(), expers.NewCampaignRegistry(),
		runner.Campaign{Name: st.Name, Seed: 1, Jobs: st.Jobs}, runner.Options{})
	if err != nil {
		return err
	}
	if err := must(st.Table(res.Results)); err != nil {
		return err
	}

	section("DPCS VDD trajectory (bzip2.s, Config A)")
	w, ok := trace.ByName("bzip2.s")
	if !ok {
		return fmt.Errorf("benchmark bzip2.s missing from suite")
	}
	var spans bytes.Buffer
	tr := tracez.New(&spans)
	ctx, job := tr.Start(context.Background(), "job")
	job.SetStr("name", "A/bzip2.s/DPCS")
	_, err = cpusim.RunContext(ctx, cpusim.ConfigA(), core.DPCS, w, cpusim.RunOptions{
		WarmupInstr: opts.WarmupInstr, SimInstr: minU(instr, 4_000_000), Seed: 1,
	})
	job.End()
	if err != nil {
		return err
	}
	ts, err := policyTables(&spans, 24)
	if err != nil {
		return err
	}
	for _, t := range ts {
		if err := table(t); err != nil {
			return err
		}
	}

	fmt.Fprintf(f, "---\nTotal generation time: %s\n", time.Since(start).Round(time.Second))
	fmt.Fprintln(stdout, "wrote", out)
	return nil
}

// renderTimeline renders the VDD trajectory and measured-window
// residency of every DPCS cell recorded in a run directory's spans.
func renderTimeline(stdout io.Writer, dir string) error {
	f, err := os.Open(filepath.Join(dir, tracez.FileName))
	if err != nil {
		return err
	}
	defer f.Close()
	ts, err := policyTables(f, 40)
	if err != nil {
		return fmt.Errorf("%s: %w", dir, err)
	}
	if len(ts) == 0 {
		return fmt.Errorf("%s: %s records no dpcs.decision instants (no DPCS cell ran)", dir, tracez.FileName)
	}
	for _, t := range ts {
		if err := t.Render(stdout); err != nil {
			return err
		}
	}
	return nil
}

// policyTables reads a spans.jsonl stream and returns, for each job
// whose policy made decisions, its VDD trajectory table (at most
// maxRows transitions) and its residency table.
func policyTables(r io.Reader, maxRows int) ([]*report.Table, error) {
	spans, err := tracez.ReadSpans(r)
	if err != nil {
		return nil, err
	}
	runs, err := expers.PolicyRuns(spans)
	if err != nil {
		return nil, err
	}
	var ts []*report.Table
	for _, run := range runs {
		ts = append(ts, expers.VDDTrajectoryTable(run, maxRows), expers.VDDResidencyTable(run))
	}
	return ts, nil
}

func minU(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
