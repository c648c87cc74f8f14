package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/expers"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The fig4 workload is Fig. 4 scaled down: a fixed slice of the grid
// run the way `pcs sim` runs it, one campaign per system configuration
// with no result store, repeated in rounds. One op is one cell.

// sliceBenches covers caches with spare capacity (hmmer, libquantum), a
// capacity cliff (bzip2) and the worst DPCS overhead (mcf on Config B).
var sliceBenches = []string{"hmmer.s", "bzip2.s", "mcf.s", "libquantum.s"}

// The scaled window: every cell warms its modelled caches for
// sliceWarmup instructions, then measures sliceInstr.
const (
	sliceWarmup = 200_000
	sliceInstr  = 1_000_000
)

// Paper reference numbers (EXPERIMENTS.md headline table): mean DPCS
// cache-energy saving and worst-case DPCS execution-time overhead per
// configuration, in percent.
const paperDPCSSaving = 69.6

var paperDPCSOverhead = map[string]float64{"A": 2.6, "B": 4.4}

var modes = []core.Mode{core.Baseline, core.SPCS, core.DPCS}

func configs() []cpusim.SystemConfig {
	return []cpusim.SystemConfig{cpusim.ConfigA(), cpusim.ConfigB()}
}

func sliceWorkloads() []trace.Workload {
	ws := make([]trace.Workload, len(sliceBenches))
	for i, n := range sliceBenches {
		w, ok := trace.ByName(n)
		if !ok {
			panic("perfbench: unknown benchmark " + n)
		}
		ws[i] = w
	}
	return ws
}

func (b *bench) sliceOpts() cpusim.RunOptions {
	return cpusim.RunOptions{WarmupInstr: sliceWarmup, SimInstr: sliceInstr, Seed: b.simSeed}
}

// cellName labels a grid cell exactly as expers.Fig4GridWorkloads does.
func cellName(cfg cpusim.SystemConfig, bench string, m core.Mode) string {
	return fmt.Sprintf("%s/%s/%v", cfg.Name, bench, m)
}

// gridJobs builds the "fig4-cell" campaign of one configuration over
// workloads, spec for spec as expers.Fig4GridWorkloads builds it.
func gridJobs(cfg cpusim.SystemConfig, workloads []trace.Workload, opts cpusim.RunOptions) ([]runner.Spec, error) {
	var jobs []runner.Spec
	for _, w := range workloads {
		for _, m := range modes {
			params, err := json.Marshal(expers.Fig4CellParams{
				Config:      cfg,
				Mode:        m.String(),
				Bench:       w.Name,
				WarmupInstr: opts.WarmupInstr,
				SimInstr:    opts.SimInstr,
				Seed:        opts.Seed,
			})
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, runner.Spec{Kind: "fig4-cell", Name: cellName(cfg, w.Name, m), Params: params})
		}
	}
	return jobs, nil
}

// fidelity accumulates passes of the slice through
// expers.Fig4GridWorkloads, run piece by piece: the reference result of
// every cell, each configuration's grid data, and the instructions
// simulated and wall time taken by the pieces run so far. A repeated
// pass must reproduce the first byte for byte.
type fidelity struct {
	ref   map[string][]byte
	data  map[string]*expers.Fig4Data
	instr uint64
	wall  time.Duration
	// todo lists the pieces not yet run, out of pieces; start is when
	// the pass began (see due).
	todo   []piece
	pieces int
	start  time.Time
}

// piece is one grid of the pass: a benchmark of the slice under the
// three modes on one configuration.
type piece struct {
	cfg cpusim.SystemConfig
	w   trace.Workload
}

func newFidelity(passes int) *fidelity {
	f := &fidelity{ref: map[string][]byte{}, data: map[string]*expers.Fig4Data{}, start: time.Now()}
	for _, cfg := range configs() {
		f.data[cfg.Name] = &expers.Fig4Data{Config: cfg.Name}
	}
	for i := 0; i < passes; i++ {
		for _, cfg := range configs() {
			for _, w := range sliceWorkloads() {
				f.todo = append(f.todo, piece{cfg, w})
			}
		}
	}
	f.pieces = len(f.todo)
	return f
}

// gaps is the distance of the pass's DPCS numbers from the paper's:
// 69.6 % minus the mean saving, and the worst overhead's distance from
// the paper's, each averaged over the configurations.
func (f *fidelity) gaps() (saving, overhead float64) {
	for _, cfg := range configs() {
		s := expers.Summarise(*f.data[cfg.Name])
		saving += s.MeanSavingDPCS * 100
		overhead += math.Abs(s.MaxOverheadDPCS*100 - paperDPCSOverhead[cfg.Name])
	}
	n := float64(len(configs()))
	return paperDPCSSaving - saving/n, overhead / n
}

func (f *fidelity) minstrPerS() float64 { return float64(f.instr) / 1e6 / f.wall.Seconds() }

// runPiece runs the next piece of the pass, exactly as `pcs sim` runs
// a grid.
func (b *bench) runPiece(f *fidelity) error {
	p := f.todo[0]
	f.todo = f.todo[1:]
	t0 := time.Now()
	data, gs, err := expers.Fig4GridWorkloads(b.ctx, p.cfg, []trace.Workload{p.w}, b.sliceOpts(), expers.GridOptions{Workers: b.workers})
	f.wall += time.Since(t0)
	if err != nil {
		return fmt.Errorf("fidelity pass, %s on config %s: %w", p.w.Name, p.cfg.Name, err)
	}
	if gs.Failed > 0 || gs.Computed != gs.Cells {
		return fmt.Errorf("fidelity pass, %s on config %s: %+v", p.w.Name, p.cfg.Name, gs)
	}
	f.instr += uint64(gs.Cells) * (sliceWarmup + sliceInstr)
	for _, row := range data.Rows {
		repeat := false
		for _, r := range []cpusim.Result{row.Baseline, row.SPCS, row.DPCS} {
			raw, err := json.Marshal(r)
			if err != nil {
				return err
			}
			name := cellName(p.cfg, row.Workload, r.Mode)
			if old, ok := f.ref[name]; ok {
				if !bytes.Equal(old, raw) {
					return fmt.Errorf("fidelity pass: %s differs from its first result in this run", name)
				}
				repeat = true
				continue
			}
			f.ref[name] = raw
		}
		if !repeat {
			d := f.data[p.cfg.Name]
			d.Rows = append(d.Rows, row)
		}
	}
	return nil
}

// due runs the pieces whose turn has come, spreading the pass evenly
// over a window of the run's length that began at f.start, so that its
// simulation rate samples the whole window and not a few seconds of it.
func (b *bench) due(f *fidelity) error {
	n := time.Duration(f.pieces)
	for len(f.todo) > 0 && time.Since(f.start)*n >= (n-time.Duration(len(f.todo)))*b.seconds {
		if err := b.runPiece(f); err != nil {
			return err
		}
	}
	return nil
}

// finishPass runs the pieces not yet run.
func (b *bench) finishPass(f *fidelity) error {
	for len(f.todo) > 0 {
		if err := b.runPiece(f); err != nil {
			return err
		}
	}
	return nil
}

// fidelityPass runs the whole slice once, at once.
func (b *bench) fidelityPass() (*fidelity, error) {
	f := newFidelity(1)
	if err := b.finishPass(f); err != nil {
		return nil, err
	}
	return f, nil
}

// fig4Setup is one in-process cold set-up of the fig4 workload: the
// memo tables, model statics and Zipf tables are dropped, then the
// registry and a first DPCS system per configuration are built.
func (b *bench) fig4Setup() (time.Duration, *runner.Registry, error) {
	t0 := time.Now()
	expers.ResetMemos()
	cpusim.ResetStatics()
	stats.ResetZipfTables()
	reg := expers.NewCampaignRegistry()
	for _, cfg := range configs() {
		if _, err := cpusim.NewSystemArena(cpusim.NewArena(), cfg, core.DPCS, b.simSeed); err != nil {
			return 0, nil, err
		}
	}
	return time.Since(t0), reg, nil
}

// cellRun is the client's view of one campaign of cells.
type cellRun struct {
	res *runner.CampaignResult
	// starts and lat are per cell: job pick-up, and the time from it
	// to the result callback.
	starts []time.Time
	lat    []time.Duration
	wall   time.Duration
	cpu    time.Duration
	// first and last bracket the cells: the first pick-up and the last
	// result, for the runner's serial time around them.
	first, last time.Time
	start, end  time.Time
}

// runCells runs one campaign, timing every cell from outside the
// runner through its OnJobStart/OnResult hooks.
func (b *bench) runCells(reg *runner.Registry, c runner.Campaign, opts runner.Options) (*cellRun, error) {
	cr := &cellRun{starts: make([]time.Time, len(c.Jobs)), lat: make([]time.Duration, len(c.Jobs))}
	starts := cr.starts
	opts.Workers = b.workers
	opts.OnJobStart = func(i int) {
		now := time.Now()
		starts[i] = now
		if cr.first.IsZero() {
			cr.first = now
		}
	}
	opts.OnResult = func(r runner.JobResult) {
		cr.last = time.Now()
		cr.lat[r.Index] = cr.last.Sub(starts[r.Index])
	}
	cpu0 := cpuTime()
	cr.start = time.Now()
	res, err := runner.Run(b.ctx, reg, c, opts)
	cr.end = time.Now()
	cr.wall = cr.end.Sub(cr.start)
	cr.cpu = cpuTime() - cpu0
	cr.res = res
	return cr, err
}

// checkCells counts the campaign's cells as ops, failing every cell
// that did not complete or whose output differs from its reference.
func (b *bench) checkCells(cr *cellRun, ref map[string][]byte) {
	for _, r := range cr.res.Results {
		b.attempted++
		if r.Status != runner.StatusDone {
			b.fail("%s: %s: %s", r.Name, r.Status, r.Error)
			continue
		}
		raw, err := json.Marshal(r.Output)
		if err != nil || !bytes.Equal(raw, ref[r.Name]) {
			b.fail("%s: output differs from the cell's first result in this run", r.Name)
		}
	}
}

// fig4 is the untraced fig4 run: end-to-end metrics.
func (b *bench) fig4() error {
	fid, err := b.fidelityPass()
	if err != nil {
		return err
	}
	var jobs [][]runner.Spec
	for _, cfg := range configs() {
		j, err := gridJobs(cfg, sliceWorkloads(), b.sliceOpts())
		if err != nil {
			return err
		}
		jobs = append(jobs, j)
	}
	var e e2e
	var reg *runner.Registry
	setups := func(n int) error {
		for i := 0; i < n; i++ {
			d, r, err := b.fig4Setup()
			if err != nil {
				return err
			}
			e.setupS = append(e.setupS, d.Seconds())
			reg = r
		}
		return nil
	}
	if err := setups(3); err != nil {
		return err
	}
	// One round runs every cell of the slice once; set-ups are spread
	// between rounds.
	err = b.window(100, func() error {
		for i, cfg := range configs() {
			cr, err := b.runCells(reg, runner.Campaign{Name: "fig4-" + cfg.Name, Seed: b.simSeed, Jobs: jobs[i]}, runner.Options{})
			if err != nil {
				return err
			}
			b.checkCells(cr, fid.ref)
			e.addCells(cr, sliceWarmup+sliceInstr)
		}
		return setups(3)
	})
	if err != nil {
		return err
	}
	b.endToEnd(&e, fid, e.minstrPerS(), len(e.opMS))
	return nil
}

// e2e accumulates the timed ops of an untraced run. Rates are totals
// over the run, not medians over its rounds: the host alternates for
// seconds at a time between two speeds about 1.7x apart, and a median
// jumps from one to the other as their shares of a run cross half,
// where a total moves with the shares.
type e2e struct {
	setupS []float64
	opMS   []float64
	wall   time.Duration
	cpu    time.Duration
	cells  int
	instr  uint64
}

// addCells records every cell of a campaign as one op.
func (e *e2e) addCells(cr *cellRun, instrPerCell uint64) {
	for _, l := range cr.lat {
		e.opMS = append(e.opMS, ms(l))
	}
	e.wall += cr.wall
	e.cpu += cr.cpu
	e.cells += len(cr.lat)
	e.instr += instrPerCell * uint64(len(cr.lat))
}

// addCampaign records a whole campaign as one op.
func (e *e2e) addCampaign(cr *cellRun) {
	e.opMS = append(e.opMS, ms(cr.wall))
	e.wall += cr.wall
	e.cpu += cr.cpu
	e.cells += len(cr.lat)
}

func (e *e2e) minstrPerS() float64 { return float64(e.instr) / 1e6 / e.wall.Seconds() }

// endToEnd sets the end-to-end metrics every workload reports.
func (b *bench) endToEnd(e *e2e, fid *fidelity, minstr float64, minstrN int) {
	b.set("setup_s", median(e.setupS), "s", len(e.setupS))
	b.set("minstr_per_s", minstr, "Minstr/s", minstrN)
	b.set("cells_per_s", float64(e.cells)/e.wall.Seconds(), "1/s", e.cells)
	b.set("op_p50_ms", quantile(e.opMS, 0.5), "ms", len(e.opMS))
	b.set("op_p90_ms", quantile(e.opMS, 0.9), "ms", len(e.opMS))
	b.set("cpu_ms_per_cell", ms(e.cpu)/float64(e.cells), "ms", e.cells)
	b.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	saving, overhead := fid.gaps()
	b.set("dpcs_saving_gap_pp", saving, "pp", len(fid.ref))
	b.set("dpcs_overhead_gap_pp", overhead, "pp", len(fid.ref))
}
