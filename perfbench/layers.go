package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/expers"
	"repro/internal/ledger"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/version"
)

// The traced run (--trace 1) reports the per-layer metrics. Spans are
// recorded by this package only, around the program's public calls: a
// runner.ResultCache decorator for Get and Put, kind functions and
// DecodeOutput wrapped in a registry rebuilt from
// expers.NewCampaignRegistry, and the runner's OnJobStart/OnResult
// hooks for cell boundaries. The simulator layers are timed by isolated
// calls. The program's own tracer (runner.Options.TraceSpans) stays off.

// layer names what a span covers.
type layer uint8

const (
	lCell    layer = iota // job pick-up to result callback
	lCompute              // registered kind function
	lDecode               // KindInfo.DecodeOutput
	lGet                  // ResultCache.Get
	lPut                  // ResultCache.Put
	lPre                  // runner.Run entry to the first job pick-up
	lPost                 // last result callback to runner.Run return
	lOp                   // one whole op
	nLayers
)

var layerNames = [nLayers]string{"cell", "compute", "decode", "get", "put", "pre", "post", "op"}

func (l layer) MarshalText() ([]byte, error) { return []byte(layerNames[l]), nil }

// span is one recorded interval; times are nanoseconds from the
// recorder's start.
type span struct {
	Op    int32 `json:"op"`
	Layer layer `json:"layer"`
	Cell  int32 `json:"cell"`
	Start int64 `json:"start_ns"`
	Dur   int64 `json:"dur_ns"`
	Bytes int32 `json:"bytes,omitempty"`
	Hit   bool  `json:"hit,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	op    atomic.Int32
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(l layer, cell int, start time.Time, d time.Duration, bytes int, hit bool) {
	s := span{Op: r.op.Load(), Layer: l, Cell: int32(cell), Start: int64(start.Sub(r.t0)), Dur: int64(d), Bytes: int32(bytes), Hit: hit}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// addRun records the op, its cells and the runner's serial time around
// them; cellBase offsets the campaign's job indices.
func (r *recorder) addRun(cr *cellRun, cellBase int) {
	r.add(lOp, -1, cr.start, cr.wall, 0, false)
	r.add(lPre, -1, cr.start, cr.first.Sub(cr.start), 0, false)
	r.add(lPost, -1, cr.last, cr.end.Sub(cr.last), 0, false)
	for i, l := range cr.lat {
		r.add(lCell, cellBase+i, cr.starts[i], l, 0, false)
	}
}

// layerStats sums a recorder's spans per layer.
type layerStats struct {
	n     [nLayers]int
	dur   [nLayers]time.Duration
	bytes [nLayers]int64
	hits  int
}

func (r *recorder) stats() layerStats {
	var s layerStats
	for _, sp := range r.spans {
		s.n[sp.Layer]++
		s.dur[sp.Layer] += time.Duration(sp.Dur)
		s.bytes[sp.Layer] += int64(sp.Bytes)
		if sp.Hit {
			s.hits++
		}
	}
	return s
}

// mean is a layer's mean span length, zero when it has no spans.
func (s layerStats) mean(l layer) time.Duration {
	if s.n[l] == 0 {
		return 0
	}
	return s.dur[l] / time.Duration(s.n[l])
}

// tracedCache is the ResultCache decorator.
type tracedCache struct {
	inner runner.ResultCache
	rec   *recorder
}

func (c tracedCache) Get(key string) ([]byte, bool, error) {
	t0 := time.Now()
	data, ok, err := c.inner.Get(key)
	c.rec.add(lGet, -1, t0, time.Since(t0), len(data), ok)
	return data, ok, err
}

func (c tracedCache) Put(key string, data []byte) error {
	t0 := time.Now()
	err := c.inner.Put(key, data)
	c.rec.add(lPut, -1, t0, time.Since(t0), len(data), false)
	return err
}

// tracedRegistry rebuilds the campaign registry with every kind
// function and decoder wrapped in a span. cellOf, when non-nil, maps a
// cell's parameter document to its index for per-cell attribution.
func tracedRegistry(rec *recorder, cellOf map[string]int) *runner.Registry {
	base := expers.NewCampaignRegistry()
	reg := runner.NewRegistry()
	for _, kind := range base.Kinds() {
		fn, _ := base.Lookup(kind)
		info := base.Info(kind)
		wrapped := func(ctx context.Context, seed uint64, params json.RawMessage) (any, error) {
			t0 := time.Now()
			out, err := fn(ctx, seed, params)
			cell, ok := cellOf[string(params)]
			if !ok {
				cell = -1
			}
			rec.add(lCompute, cell, t0, time.Since(t0), 0, false)
			return out, err
		}
		if dec := info.DecodeOutput; dec != nil {
			info.DecodeOutput = func(data []byte) (any, error) {
				t0 := time.Now()
				out, err := dec(data)
				rec.add(lDecode, -1, t0, time.Since(t0), len(data), false)
				return out, err
			}
		}
		reg.MustRegisterKind(kind, wrapped, info)
	}
	return reg
}

// allocs returns the process's cumulative heap allocation count.
func allocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// simCell is one cell of the slice.
type simCell struct {
	cfg  cpusim.SystemConfig
	w    trace.Workload
	mode core.Mode
	name string
}

func sliceCells() []simCell {
	var cells []simCell
	for _, cfg := range configs() {
		for _, w := range sliceWorkloads() {
			for _, m := range modes {
				cells = append(cells, simCell{cfg, w, m, cellName(cfg, w.Name, m)})
			}
		}
	}
	return cells
}

// isolatedRound runs every cell of the slice through cpusim.RunContext
// directly, on as many goroutines as the campaign has workers, each
// with its own arena per configuration as a campaign worker has. With
// pin, each goroutine is locked to its OS thread while it runs cells,
// as the runner's per-job resource probe locks its worker.
func (b *bench) isolatedRound(cells []simCell, pin bool) ([]time.Duration, []cpusim.Result, error) {
	durs := make([]time.Duration, len(cells))
	res := make([]cpusim.Result, len(cells))
	errs := make([]error, len(cells))
	for _, cfg := range configs() {
		idx := make(chan int)
		var wg sync.WaitGroup
		for g := 0; g < b.workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if pin {
					runtime.LockOSThread()
					defer runtime.UnlockOSThread()
				}
				arena := cpusim.NewArena()
				for i := range idx {
					c := cells[i]
					opts := b.sliceOpts()
					opts.Arena = arena
					t0 := time.Now()
					res[i], errs[i] = cpusim.RunContext(b.ctx, c.cfg, c.mode, c.w, opts)
					durs[i] = time.Since(t0)
				}
			}()
		}
		for i, c := range cells {
			if c.cfg.Name == cfg.Name {
				idx <- i
			}
		}
		close(idx)
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", cells[i].name, err)
		}
	}
	return durs, res, nil
}

// parallel runs fn on every worker goroutine at once and returns the
// slowest goroutine's wall time, so isolated layers are timed under the
// same CPU contention as the campaign's workers.
func (b *bench) parallel(fn func()) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < b.workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// simLayers times the simulator's layers in isolation and reads their
// exact counts from the slice's results.
type simLayers struct {
	cells   []simCell
	ref     map[string][]byte
	results []cpusim.Result
	// isolated and pinned hold each cell's RunContext times across
	// rounds run on free and on OS-thread-locked goroutines.
	isolated, pinned [][]time.Duration

	genNsPerInstr float64
	accessNs      float64
	transitionUs  float64
	buildFreshMs  float64
	buildReusedMs float64
	allocsPerCell float64
	// l1dPerInst is set by setSim from the slice's results.
	l1dPerInst float64
}

func (b *bench) measureSimLayers() (*simLayers, error) {
	s := &simLayers{cells: sliceCells(), ref: map[string][]byte{}}
	s.isolated = make([][]time.Duration, len(s.cells))
	s.pinned = make([][]time.Duration, len(s.cells))
	a0 := allocs()
	if err := s.round(b, false); err != nil {
		return nil, err
	}
	s.allocsPerCell = float64(allocs()-a0) / float64(len(s.cells))
	if err := s.round(b, true); err != nil {
		return nil, err
	}

	// System construction, fresh arena against reused arena.
	var fresh, reused time.Duration
	nb := 0
	for rep := 0; rep < 3; rep++ {
		for _, cfg := range configs() {
			for _, m := range modes {
				arena := cpusim.NewArena()
				t0 := time.Now()
				if _, err := cpusim.NewSystemArena(arena, cfg, m, b.simSeed); err != nil {
					return nil, err
				}
				t1 := time.Now()
				if _, err := cpusim.NewSystemArena(arena, cfg, m, b.simSeed); err != nil {
					return nil, err
				}
				fresh += t1.Sub(t0)
				reused += time.Since(t1)
				nb++
			}
		}
	}
	s.buildFreshMs = ms(fresh) / float64(nb)
	s.buildReusedMs = ms(reused) / float64(nb)

	// Trace generation: trace.New + NextBlock over a cell's window of
	// every benchmark of the slice.
	const perCell = sliceWarmup + sliceInstr
	wall := b.parallel(func() {
		buf := make([]trace.Instr, trace.BlockSize)
		for _, w := range sliceWorkloads() {
			bg := trace.AsBlock(trace.MustNew(w, b.simSeed))
			for n := 0; n < perCell; {
				n += bg.NextBlock(buf)
			}
		}
	})
	s.genNsPerInstr = float64(wall) / float64(perCell*len(sliceBenches))

	// Cache probes: each benchmark's recorded data stream replayed
	// through cache.Access on Config A's L1D.
	type access struct {
		addr  uint64
		write bool
	}
	var streams [][]access
	buf := make([]trace.Instr, trace.BlockSize)
	for _, w := range sliceWorkloads() {
		bg := trace.AsBlock(trace.MustNew(w, b.simSeed))
		var st []access
		for n := 0; n < sliceInstr/2; {
			k := bg.NextBlock(buf)
			for _, in := range buf[:k] {
				if in.HasMem {
					st = append(st, access{in.Addr, in.Write})
				}
			}
			n += k
		}
		streams = append(streams, st)
	}
	l1d := cpusim.ConfigA().L1D.Org
	var nAcc int
	for _, st := range streams {
		nAcc += len(st)
	}
	wall = b.parallel(func() {
		c := cache.MustNew(cache.Config{Name: "L1D", SizeBytes: l1d.SizeBytes, Assoc: l1d.Assoc, BlockBytes: l1d.BlockBytes})
		for _, st := range streams {
			c.Reset()
			for _, a := range st {
				c.Access(a.addr, a.write)
			}
		}
	})
	s.accessNs = float64(wall) / float64(nAcc)

	// Voltage transitions: Controller.Transition on Config A's L2
	// between its lowest and highest level, dirtying the cache first.
	sys, err := cpusim.NewSystemArena(cpusim.NewArena(), cpusim.ConfigA(), core.DPCS, b.simSeed)
	if err != nil {
		return nil, err
	}
	ctrl := sys.L2Controller()
	size := uint64(cpusim.ConfigA().L2.Org.SizeBytes)
	var tTrans time.Duration
	var now uint64
	var nTrans int
	for rep := 0; rep < 20; rep++ {
		for addr := uint64(0); addr < size; addr += 64 {
			ctrl.Cache.Access(addr, true)
		}
		for _, lvl := range []int{1, ctrl.Levels.N()} {
			now += 10_000
			t0 := time.Now()
			ctrl.Transition(lvl, now, func(uint64) {})
			tTrans += time.Since(t0)
			nTrans++
		}
	}
	s.transitionUs = us(tTrans) / float64(nTrans)
	return s, nil
}

// round runs one isolated round, keeping the first round's results as
// the reference every later cell of the run is checked against.
func (s *simLayers) round(b *bench, pin bool) error {
	durs, res, err := b.isolatedRound(s.cells, pin)
	if err != nil {
		return err
	}
	first := s.results == nil
	if !first {
		b.attempted += len(s.cells)
	}
	times := s.isolated
	if pin {
		times = s.pinned
	}
	for i, c := range s.cells {
		times[i] = append(times[i], durs[i])
		raw, err := json.Marshal(res[i])
		if err != nil {
			return err
		}
		if first {
			s.ref[c.name] = raw
		} else if string(raw) != string(s.ref[c.name]) {
			b.fail("%s: isolated result differs from its first result in this run", c.name)
		}
	}
	if first {
		s.results = res
	}
	return nil
}

// setSim reports the simulator layers.
func (b *bench) setSim(s *simLayers) {
	var l1dAcc, l1dMiss, l2Acc, l2Miss, acc, instr, wbs uint64
	var trans int
	for _, r := range s.results {
		l1dAcc += r.L1D.Stats.Accesses
		l1dMiss += r.L1D.Stats.Misses
		l2Acc += r.L2.Stats.Accesses
		l2Miss += r.L2.Stats.Misses
		acc += r.L1I.Stats.Accesses + r.L1D.Stats.Accesses + r.L2.Stats.Accesses
		instr += r.Instructions
		t, w := r.ResourceCounts()
		trans += t
		wbs += w
	}
	n := len(s.cells)
	iso, pinned := meanMs(s.isolated), meanMs(s.pinned)
	s.l1dPerInst = float64(l1dAcc) / float64(instr)
	b.set("trace.gen_ns_per_instr", s.genNsPerInstr, "ns", len(sliceBenches))
	b.set("cache.access_ns", s.accessNs, "ns", len(sliceBenches))
	b.set("cache.l1d_miss_rate", float64(l1dMiss)/float64(l1dAcc), "ratio", n)
	b.set("cache.l2_miss_rate", float64(l2Miss)/float64(l2Acc), "ratio", n)
	b.set("cache.accesses_per_instr", float64(acc)/float64(instr), "count", n)
	b.set("core.transitions_per_cell", float64(trans)/float64(n), "count", n)
	b.set("core.writebacks_per_transition", float64(wbs)/float64(trans), "count", n)
	b.set("core.transition_us", s.transitionUs, "us", 40)
	b.set("cpusim.build_fresh_ms", s.buildFreshMs, "ms", 3*len(configs())*len(modes))
	b.set("cpusim.build_reused_ms", s.buildReusedMs, "ms", 3*len(configs())*len(modes))
	b.set("cpusim.ns_per_instr", 1e6*iso/(sliceWarmup+sliceInstr), "ns", n*len(s.isolated[0]))
	b.set("cpusim.allocs_per_cell", s.allocsPerCell, "count", n)
	b.set("runner.pin_ms_per_cell", pinned-iso, "ms", n*(len(s.isolated[0])+len(s.pinned[0])))
}

// medianMs is each cell's median time over rounds, in ms.
func medianMs(rounds [][]time.Duration) []float64 {
	out := make([]float64, len(rounds))
	for i, d := range rounds {
		xs := make([]float64, len(d))
		for j, x := range d {
			xs[j] = ms(x)
		}
		out[i] = median(xs)
	}
	return out
}

// meanMs is the mean over cells of each cell's median time, in ms.
func meanMs(rounds [][]time.Duration) float64 {
	var sum float64
	for _, m := range medianMs(rounds) {
		sum += m
	}
	return sum / float64(len(rounds))
}

// setLedgerAndKey times the ledger and the store key in isolation on
// a workload's own campaign.
func (b *bench) setLedgerAndKey(c runner.Campaign) error {
	v := version.String()
	t0 := time.Now()
	nKeys := 0
	for time.Since(t0) < 50*time.Millisecond {
		for _, j := range c.Jobs {
			if _, err := resultstore.Key(j.Kind, j.Params, 0, v); err != nil {
				return err
			}
			nKeys++
		}
	}
	b.set("resultstore.key_us", us(time.Since(t0))/float64(nKeys), "us", nKeys)

	var digests []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		raw, err := json.Marshal(c.Jobs)
		if err != nil {
			return err
		}
		if _, err := ledger.SpecsDigest(raw); err != nil {
			return err
		}
		digests = append(digests, ms(time.Since(t0)))
	}
	b.set("ledger.specs_digest_ms", median(digests), "ms", len(digests))

	digest := ledger.LineDigest([]byte("perfbench"))
	nApp := 0
	t0 = time.Now()
	for time.Since(t0) < 20*time.Millisecond {
		lw := ledger.NewWriter(io.Discard)
		if err := lw.Append(ledger.TypeManifest, ledger.Manifest{Campaign: c.Name, Seed: c.Seed, Jobs: len(c.Jobs), Workers: b.workers, CodeVersion: v, SpecsDigest: digest}); err != nil {
			return err
		}
		for i, j := range c.Jobs {
			if err := lw.Append(ledger.TypeResult, ledger.Result{Index: i, Kind: j.Kind, Name: j.Name, Seed: 1, Status: "done", Digest: digest}); err != nil {
				return err
			}
		}
		if err := lw.Append(ledger.TypeSummary, ledger.Summary{Done: len(c.Jobs), ResultsDigest: digest}); err != nil {
			return err
		}
		nApp += len(c.Jobs) + 2
	}
	b.set("ledger.append_us", us(time.Since(t0))/float64(nApp), "us", nApp)
	return nil
}

// budgetRow is one line of a reconciliation table.
type budgetRow struct {
	Layer   string  `json:"layer"`
	SelfUs  float64 `json:"self_us"`
	Calls   float64 `json:"calls_per_op"`
	ShareMs float64 `json:"ms_per_op"`
}

// budget is a workload's layer reconciliation: per-layer self time
// times counts against the median traced op.
type budget struct {
	Workload     string      `json:"workload"`
	OpMs         float64     `json:"median_op_ms"`
	PredictedMs  float64     `json:"predicted_op_ms"`
	Rows         []budgetRow `json:"rows"`
	Unexplained  float64     `json:"unexplained_pct"`
	TolerancePct float64     `json:"tolerance_pct"`
	Note         string      `json:"note"`
	Detail       []budgetRow `json:"detail,omitempty"`
	DetailNote   string      `json:"detail_note,omitempty"`
}

// reconcileTolerance is the stated bound on a budget's unexplained
// remainder, as a share of the median op.
const reconcileTolerance = 15.0

// finish prints the budget, reports it and writes the spans.
func (b *bench) finish(bg *budget, overheadPct float64, recs ...*recorder) error {
	bg.Workload = b.workload
	bg.TolerancePct = reconcileTolerance
	bg.Unexplained = 100 * (bg.OpMs - bg.PredictedMs) / bg.OpMs
	fmt.Fprintf(b.log, "layer budget, %s (ms per op):\n", b.workload)
	for _, r := range bg.Rows {
		fmt.Fprintf(b.log, "  %-28s self %12.3f us x %9.2f calls = %9.3f ms\n", r.Layer, r.SelfUs, r.Calls, r.ShareMs)
	}
	fmt.Fprintf(b.log, "  predicted %.3f ms, median traced op %.3f ms, unexplained %.1f %% (tolerance %.0f %%): %s\n",
		bg.PredictedMs, bg.OpMs, bg.Unexplained, reconcileTolerance, bg.Note)
	for _, r := range bg.Detail {
		fmt.Fprintf(b.log, "    %-26s %9.3f ms per op\n", r.Layer, r.ShareMs)
	}
	if bg.DetailNote != "" {
		fmt.Fprintf(b.log, "    %s\n", bg.DetailNote)
	}
	ok := bg.Unexplained <= reconcileTolerance && bg.Unexplained >= -reconcileTolerance
	fmt.Fprintf(b.log, "  reconciliation within tolerance: %v; tracing overhead %.1f %%\n", ok, overheadPct)
	abs := bg.Unexplained
	if abs < 0 {
		abs = -abs
	}
	b.set("budget.unexplained_pct", abs, "%", 1)
	b.set("budget.tracing_overhead_pct", overheadPct, "%", 1)
	return b.writeSpans(bg, recs...)
}

// maxSpansWritten bounds the span file: the budget plus the first spans
// of each recorder.
const maxSpansWritten = 20_000

// writeSpans writes the budget and the recorded spans to
// .bench_build/spans-<workload>.jsonl at exit.
func (b *bench) writeSpans(bg *budget, recs ...*recorder) error {
	f, err := os.Create(filepath.Join(b.root, ".bench_build", "spans-"+b.workload+".jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(bg); err != nil {
		f.Close()
		return err
	}
	for _, r := range recs {
		for i, s := range r.spans {
			if i == maxSpansWritten {
				break
			}
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}
