// Package runner is the experiment orchestration subsystem: it executes
// a campaign — a slice of self-describing experiment specs — across a
// pool of workers, with deterministic per-job seeding, panic isolation,
// cancellation, progress reporting, and an optional JSON-lines artifact
// store under runs/<timestamp>/.
//
// Determinism: each job's seed is derived from the campaign seed and the
// job's index with stats.Derive, so an 8-worker run produces result
// records byte-identical to a 1-worker run of the same campaign. Result
// records never include wall-clock data for the same reason; timing
// lives in Progress and in the campaign manifest.
//
// # Concurrency contract
//
// Kind functions (see Registry) run concurrently on multiple goroutines.
// They must not share mutable state across calls: every stochastic
// component must draw from an RNG constructed inside the call from the
// given seed, and every simulator instance must be built inside the
// call. All simulator substrates in this repository (cpusim, multicore,
// faultmodel, trace) follow that shape — construction takes a seed and
// the resulting object is confined to one goroutine.
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs/tracez"
	"repro/internal/resultstore"
	"repro/internal/stats"
)

// ResultCache is the runner's view of a content-addressed result
// store: opaque keys to serialized output documents.
// *resultstore.Store implements it; the interface keeps the runner
// independent of the store's backends. Both methods must be safe for
// concurrent use.
type ResultCache interface {
	Get(key string) ([]byte, bool, error)
	Put(key string, data []byte) error
}

// Spec is one self-describing experiment: a registered kind plus its
// JSON-encoded parameters. Specs are the unit of work submitted to the
// pool and the unit serialised over the pcs-server wire protocol.
type Spec struct {
	// Kind names a function in the Registry.
	Kind string `json:"kind"`
	// Name optionally labels the job in records and progress output.
	Name string `json:"name,omitempty"`
	// Params is the kind-specific parameter document.
	Params json.RawMessage `json:"params,omitempty"`
}

// Campaign is an ordered batch of experiment specs sharing one seed.
type Campaign struct {
	Name string `json:"name"`
	// Seed is the campaign master seed; job i runs with
	// stats.Derive(Seed, i) unless its kind overrides seeding.
	Seed uint64 `json:"seed"`
	Jobs []Spec `json:"jobs"`
}

// Status is a job's terminal state.
type Status string

const (
	// StatusDone marks a job whose kind function returned without error.
	StatusDone Status = "done"
	// StatusFailed marks a job whose kind function returned an error or
	// panicked; the campaign continues.
	StatusFailed Status = "failed"
	// StatusCancelled marks a job abandoned because the campaign
	// context was cancelled.
	StatusCancelled Status = "cancelled"
)

// JobResult is the deterministic record of one job. It is what the
// artifact store writes as one JSON line and what the server streams.
type JobResult struct {
	Index  int    `json:"index"`
	Kind   string `json:"kind"`
	Name   string `json:"name,omitempty"`
	Seed   uint64 `json:"seed"`
	Status Status `json:"status"`
	Error  string `json:"error,omitempty"`
	Output any    `json:"output,omitempty"`
	// Duration is the job's wall-clock run time. It is excluded from
	// JSON so results.jsonl stays byte-identical across worker counts;
	// wall-clock timing belongs to the job's span.
	Duration time.Duration `json:"-"`
	// Cached marks a result served from Options.Cache instead of
	// computed. Excluded from JSON for the same determinism reason as
	// Duration: a cached re-run must reproduce results.jsonl
	// byte-identically. Cache provenance is recorded on the job span
	// and in ledger.jsonl.
	Cached bool `json:"-"`
	// Resources is the job's measured resource-attribution block (CPU
	// time, allocations, cache probe outcome). Excluded from JSON like
	// Duration: it is wall-clock data and belongs to the job span.
	Resources *JobResources `json:"-"`
}

// Progress is a snapshot of a running campaign.
type Progress struct {
	Total     int `json:"total"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	Running   int `json:"running"`
	// Elapsed is the wall-clock time since the campaign started.
	Elapsed time.Duration `json:"elapsed_ns"`
	// JobsPerSec is the completion rate so far (done+failed per second).
	JobsPerSec float64 `json:"jobs_per_sec"`
	// ETA estimates the remaining wall-clock time from the current rate;
	// zero until at least one job has finished.
	ETA time.Duration `json:"eta_ns"`
}

// Completed returns how many jobs have reached a terminal state.
func (p Progress) Completed() int { return p.Done + p.Failed + p.Cancelled }

// Options configure one campaign execution.
type Options struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// ArtifactDir, when non-empty, is the directory (typically
	// runs/<timestamp>, see NewRunDir) that receives the run's
	// artifacts, spans.jsonl among them (see artifacts.go).
	ArtifactDir string
	// OnProgress, when non-nil, is called (serialised) after every job
	// reaches a terminal state.
	OnProgress func(Progress)
	// OnResult, when non-nil, is called (serialised) with each job's
	// result as it completes, in completion order.
	OnResult func(JobResult)
	// OnJobStart, when non-nil, is called (serialised) as a worker picks
	// up each job, before its kind function runs.
	OnJobStart func(index int)
	// JobContext, when non-nil, decorates each job's context before the
	// kind function sees it — e.g. attaching a per-job telemetry sink
	// with obs.ContextWithPolicySink.
	JobContext func(ctx context.Context, index int, spec Spec) context.Context
	// Cache, when non-nil, memoizes job outputs content-addressed by
	// (kind, canonical params, effective seed, CodeVersion): runJob
	// consults it before executing and stores successful outputs after.
	// Only kinds registered with a DecodeOutput (see KindInfo) ever hit
	// the cache. Cache failures degrade to recomputation, never to
	// campaign failure.
	Cache ResultCache
	// CodeVersion is the build identity mixed into every cache key (a
	// rebuild with different code must miss) and recorded in the run
	// ledger. Empty is allowed but conflates builds; the pcs CLI always
	// passes version.String().
	CodeVersion string
	// SpanSink, when non-nil, receives every finished span live, as
	// the same JSON line spans.jsonl gets, in one Write call per span
	// (see tracez.New); the server uses it to feed
	// GET /campaigns/{id}/spans while the campaign runs. A campaign
	// records spans whenever it has an ArtifactDir or a SpanSink; with
	// neither, its tracer is nil and costs zero allocations.
	// results.jsonl is byte-identical either way.
	SpanSink io.Writer
	// OnArtifacts, when non-nil, is called once with the run's artifact
	// store before any job starts, so callers can flush-and-fsync the
	// wall-clock sidecars on demand (server drain).
	OnArtifacts func(ArtifactSyncer)
	// NoWorkerState disables per-worker reusable state (KindInfo's
	// NewWorkerState): every job then runs cold, allocating from
	// scratch. Outputs must be byte-identical either way; differential
	// tests and cold benchmarks set this to compare against the warm
	// arena path.
	NoWorkerState bool
}

// ArtifactSyncer flushes the buffered spans.jsonl sidecar to durable
// storage. Safe for concurrent use with the writers.
type ArtifactSyncer interface {
	SyncArtifacts() error
}

// CampaignResult is the outcome of a campaign execution.
type CampaignResult struct {
	Name    string `json:"name"`
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
	// Results holds one entry per job, in job-index order.
	Results []JobResult `json:"results"`
	Done    int         `json:"done"`
	Failed  int         `json:"failed"`
	// Cancelled counts jobs abandoned due to context cancellation.
	Cancelled int `json:"cancelled"`
	// Cached counts done jobs that were served from Options.Cache.
	Cached      int           `json:"cached,omitempty"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	ArtifactDir string        `json:"artifact_dir,omitempty"`
}

// JobSeed returns job i's derived seed under campaign seed.
func JobSeed(campaignSeed uint64, index int) uint64 {
	return stats.Derive(campaignSeed, uint64(index))
}

// Run executes every job of the campaign on a worker pool and returns
// the per-job results in job-index order. The returned error is non-nil
// only for setup problems (unknown kind, artifact I/O) or context
// cancellation; individual job failures are reported in the results.
func Run(ctx context.Context, reg *Registry, c Campaign, opts Options) (*CampaignResult, error) {
	if len(c.Jobs) == 0 {
		return nil, fmt.Errorf("runner: campaign %q has no jobs", c.Name)
	}
	// Validate every kind up front so a typo fails fast rather than
	// halfway through an expensive campaign.
	for i, s := range c.Jobs {
		if _, ok := reg.Lookup(s.Kind); !ok {
			return nil, fmt.Errorf("runner: job %d: unknown kind %q (registered: %v)", i, s.Kind, reg.Kinds())
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(c.Jobs) {
		workers = len(c.Jobs)
	}

	var store *artifactStore
	if opts.ArtifactDir != "" {
		var err error
		store, err = newArtifactStore(opts.ArtifactDir, c, workers, opts.CodeVersion)
		if err != nil {
			return nil, err
		}
		if opts.OnArtifacts != nil {
			opts.OnArtifacts(store)
		}
		// Killed or cancelled runs must never leave torn sidecar lines:
		// flush and fsync the moment the context dies, without waiting
		// for workers to notice.
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				_ = store.SyncArtifacts()
			case <-watchDone:
			}
		}()
	}

	// Spans go to the run directory's spans.jsonl and the caller's live
	// sink, whichever exist, encoded once for both. With neither the
	// tracer stays nil and costs nothing at the instrumentation sites.
	var sinks []io.Writer
	if store != nil {
		sinks = append(sinks, store.spans)
	}
	if opts.SpanSink != nil {
		sinks = append(sinks, opts.SpanSink)
	}
	var tracer *tracez.Tracer
	if len(sinks) > 0 {
		tracer = tracez.New(io.MultiWriter(sinks...))
	}

	start := time.Now()
	results := make([]JobResult, len(c.Jobs))
	indices := make(chan int)
	var (
		mu   sync.Mutex
		prog = Progress{Total: len(c.Jobs)}
		wg   sync.WaitGroup
	)
	finish := func(r JobResult) {
		mu.Lock()
		defer mu.Unlock()
		prog.Running--
		switch r.Status {
		case StatusFailed:
			prog.Failed++
		case StatusCancelled:
			prog.Cancelled++
		default:
			prog.Done++
		}
		prog.Elapsed = time.Since(start)
		if n := prog.Completed(); n > 0 && prog.Elapsed > 0 {
			prog.JobsPerSec = float64(n) / prog.Elapsed.Seconds()
			remaining := prog.Total - n
			prog.ETA = time.Duration(float64(remaining) / prog.JobsPerSec * float64(time.Second))
		}
		if opts.OnResult != nil {
			opts.OnResult(r)
		}
		if opts.OnProgress != nil {
			opts.OnProgress(prog)
		}
	}

	// The campaign span roots the trace; job spans parent under it via
	// the context the workers share.
	ctxJobs := ctx
	var campSpan *tracez.Span
	if tracer != nil {
		ctxJobs = tracez.ContextWith(ctx, tracer)
		ctxJobs, campSpan = tracer.Start(ctxJobs, "campaign")
		campSpan.SetStr("campaign", c.Name)
		campSpan.SetUint("seed", c.Seed)
		campSpan.SetInt("jobs", int64(len(c.Jobs)))
		campSpan.SetInt("workers", int64(workers))
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// states holds this worker's reusable per-kind state (see
			// KindInfo.NewWorkerState), built lazily and confined to
			// this goroutine for the campaign's lifetime.
			var states map[string]any
			for i := range indices {
				mu.Lock()
				prog.Running++
				if opts.OnJobStart != nil {
					opts.OnJobStart(i)
				}
				mu.Unlock()
				if states == nil {
					states = make(map[string]any)
				}
				results[i] = runJob(ctxJobs, reg, c, i, worker, states, opts)
				finish(results[i])
			}
		}(w)
	}
feed:
	for i := range c.Jobs {
		select {
		case indices <- i:
		case <-ctx.Done():
			// Mark the never-dispatched tail cancelled.
			for j := i; j < len(c.Jobs); j++ {
				results[j] = cancelledResult(c, j)
			}
			break feed
		}
	}
	close(indices)
	wg.Wait()

	res := &CampaignResult{
		Name:    c.Name,
		Seed:    c.Seed,
		Workers: workers,
		Results: results,
		Elapsed: time.Since(start),
	}
	for _, r := range results {
		switch r.Status {
		case StatusDone:
			res.Done++
			if r.Cached {
				res.Cached++
			}
		case StatusFailed:
			res.Failed++
		case StatusCancelled:
			res.Cancelled++
		}
	}
	if campSpan != nil {
		campSpan.SetInt("done", int64(res.Done))
		campSpan.SetInt("failed", int64(res.Failed))
		campSpan.SetInt("cancelled", int64(res.Cancelled))
		campSpan.End()
	}
	if store != nil {
		res.ArtifactDir = store.dir
		if err := store.finish(results, res, tracer); err != nil {
			return res, err
		}
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// runJob executes one job with panic isolation: a panicking kind
// function marks its own job failed instead of killing the campaign.
// It also owns the job's observability: the resource-attribution
// probe, and the job span (a child of the campaign span when the
// campaign records spans) that carries the outcome.
func runJob(ctx context.Context, reg *Registry, c Campaign, i, worker int, states map[string]any, opts Options) (res JobResult) {
	spec := c.Jobs[i]
	res = JobResult{Index: i, Kind: spec.Kind, Name: spec.Name, Seed: JobSeed(c.Seed, i)}
	ctx, span := startJobSpan(ctx, i, worker, spec, res.Seed)
	probe := startResourceProbe()
	jobStart := time.Now()
	stored := 0
	defer func() {
		res.Duration = time.Since(jobStart)
		if p := recover(); p != nil {
			res.Status = StatusFailed
			res.Output = nil
			res.Error = fmt.Sprintf("panic: %v\n%s", p, debug.Stack())
		}
		r := probe.stop()
		r.CacheHit = res.Cached
		if rc, ok := res.Output.(ResourceCounter); ok {
			r.Transitions, r.Writebacks = rc.ResourceCounts()
		}
		res.Resources = r
		endJobSpan(span, &res, stored)
	}()
	if ctx.Err() != nil {
		return cancelledResult(c, i)
	}
	if opts.JobContext != nil {
		ctx = opts.JobContext(ctx, i, spec)
	}
	fn, _ := reg.Lookup(spec.Kind)
	info := reg.Info(spec.Kind)

	// Per-worker reusable state: built on the worker's first job of
	// this kind, then handed to every later one. Disabled (cold path)
	// under Options.NoWorkerState.
	if !opts.NoWorkerState && info.NewWorkerState != nil {
		st, ok := states[spec.Kind]
		if !ok {
			st = info.NewWorkerState()
			states[spec.Kind] = st
		}
		ctx = ContextWithWorkerState(ctx, st)
	}

	// Content-addressed memoization: only kinds that can reconstruct
	// their concrete output type from stored bytes participate.
	var cacheKey string
	if opts.Cache != nil && info.DecodeOutput != nil {
		key, err := resultstore.Key(spec.Kind, spec.Params, effectiveSeed(info, spec.Params, res.Seed), opts.CodeVersion)
		if err == nil {
			cacheKey = key
			data, ok, _ := opts.Cache.Get(key)
			if ok {
				if out, derr := info.DecodeOutput(data); derr == nil {
					res.Status = StatusDone
					res.Output = out
					res.Cached = true
					return res
				}
				// An undecodable entry (e.g. written by an incompatible
				// build despite the version key) falls through to compute.
			}
			probe.cacheMiss = true
		}
	}

	out, err := fn(ctx, res.Seed, spec.Params)
	if err != nil {
		if ctx.Err() != nil {
			res.Status = StatusCancelled
			res.Error = context.Cause(ctx).Error()
			return res
		}
		res.Status = StatusFailed
		res.Error = err.Error()
		return res
	}
	res.Status = StatusDone
	res.Output = out
	if cacheKey != "" {
		// Best effort: a Put failure leaves the result intact and the
		// cell recomputable next time.
		if data, err := json.Marshal(out); err == nil {
			if opts.Cache.Put(cacheKey, data) == nil {
				stored = len(data)
			}
		}
	}
	return res
}

// startJobSpan opens job i's span under ctx's current span, the
// campaign's; without a tracer it returns ctx and a nil span.
func startJobSpan(ctx context.Context, i, worker int, spec Spec, seed uint64) (context.Context, *tracez.Span) {
	ctx, sp := tracez.FromContext(ctx).Start(ctx, "job")
	sp.SetInt("job", int64(i))
	sp.SetStr("kind", spec.Kind)
	if spec.Name != "" {
		sp.SetStr("name", spec.Name)
	}
	sp.SetUint("seed", seed)
	sp.SetInt("worker", int64(worker))
	return ctx, sp
}

// endJobSpan records a finished job on its span and ends it: the
// terminal status and error, the resource block (the span's duration
// is the wall time), the result-cache outcome ("hit" or "miss", absent
// when the store was not consulted) and the bytes the job stored
// there. These attributes are the whole record of the job's wall-clock
// life; report.CellsFromSpans reads them back.
func endJobSpan(sp *tracez.Span, r *JobResult, stored int) {
	if sp == nil {
		return
	}
	sp.SetStr("status", string(r.Status))
	if r.Error != "" {
		sp.SetStr("error", r.Error)
	}
	res := r.Resources
	sp.SetFloat("cpu_ms", res.CPUMS)
	sp.SetUint("allocs", res.Allocs)
	sp.SetUint("alloc_bytes", res.AllocBytes)
	switch {
	case res.CacheHit:
		sp.SetStr("cache", "hit")
	case res.CacheMiss:
		sp.SetStr("cache", "miss")
	}
	if stored > 0 {
		sp.SetInt("stored_bytes", int64(stored))
	}
	if res.Transitions > 0 {
		sp.SetInt("transitions", int64(res.Transitions))
	}
	if res.Writebacks > 0 {
		sp.SetUint("writebacks", res.Writebacks)
	}
	sp.End()
}

// effectiveSeed resolves the seed component of a cell's cache key,
// mirroring the kinds' own seeding convention: unseeded analytical
// kinds hash as 0 (their output cannot depend on the seed), kinds
// whose params pin a non-zero top-level "seed" hash that pin, and
// everything else hashes the runner-derived per-job seed.
func effectiveSeed(info KindInfo, params json.RawMessage, derived uint64) uint64 {
	if !info.Seeded {
		return 0
	}
	var p struct {
		Seed uint64 `json:"seed"`
	}
	if len(params) > 0 {
		// Loose parse: params that fail here fail properly in the kind
		// function.
		_ = json.Unmarshal(params, &p)
	}
	if p.Seed != 0 {
		return p.Seed
	}
	return derived
}

func cancelledResult(c Campaign, i int) JobResult {
	return JobResult{
		Index:  i,
		Kind:   c.Jobs[i].Kind,
		Name:   c.Jobs[i].Name,
		Seed:   JobSeed(c.Seed, i),
		Status: StatusCancelled,
		Error:  context.Canceled.Error(),
	}
}
