package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracez"
)

// Server turns the campaign runner into an HTTP job service — the
// pcs-server wire surface:
//
//	POST   /campaigns               submit a campaign, returns its id
//	GET    /campaigns               list campaigns
//	GET    /campaigns/{id}          status, progress and ETA
//	GET    /campaigns/{id}/results  JSONL stream of completed records
//	GET    /campaigns/{id}/events   NDJSON stream of job lifecycle events
//	DELETE /campaigns/{id}          cancel a running campaign
//	GET    /metrics                 Prometheus text exposition
//	GET    /healthz                 liveness probe
//	GET    /readyz                  drain-aware readiness probe
//
// The server parses no body format itself: every POST /campaigns body
// goes to the expander given to NewServer, which lowers it to a
// campaign (production passes config.ExpandBytes, so the body is the
// same experiment-spec document the pcs CLI consumes).
//
// Campaigns execute asynchronously on the server's worker pools; status
// and partial results are available while a campaign runs. All state is
// in memory plus the optional runs/ artifact directory.
type Server struct {
	reg *Registry

	// defaultWorkers sizes pools for submissions that do not specify
	// workers; <= 0 resolves to GOMAXPROCS at submission time.
	defaultWorkers int
	// artifactRoot, when non-empty, gives every campaign a run
	// directory under <artifactRoot>/<id>/.
	artifactRoot string
	// expand lowers a POST /campaigns body to its campaign and
	// requested worker count; see NewServer.
	expand func(body []byte) (Campaign, int, error)
	// cache, when non-nil, memoizes cell results across campaigns — the
	// shared-service payoff: two users submitting overlapping sweeps
	// compute each cell once.
	cache       ResultCache
	codeVersion string
	// traceSpans enables per-campaign span tracing: spans.jsonl in the
	// run directory plus the live GET /campaigns/{id}/spans stream.
	traceSpans bool

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	// draining flips once BeginDrain is called; /readyz reports 503 so
	// load balancers stop routing new submissions while in-flight
	// requests finish.
	draining atomic.Bool

	log     *slog.Logger
	metrics *serverMetrics

	mu        sync.Mutex
	campaigns map[string]*campaignState
	order     []string // submission order, for listing
	nextID    int
	started   time.Time
}

// ServerOptions configure NewServer.
type ServerOptions struct {
	// DefaultWorkers is used when a submission omits "workers".
	DefaultWorkers int
	// ArtifactRoot, when non-empty, archives every campaign under
	// <ArtifactRoot>/<campaign id>/.
	ArtifactRoot string
	// Logger, when non-nil, receives structured operational logs
	// (submissions, completions, response-write failures). Nil discards.
	Logger *slog.Logger
	// Cache, when non-nil, is passed to every campaign execution as
	// Options.Cache and surfaces resultstore_* families at /metrics.
	Cache ResultCache
	// CodeVersion is the build identity recorded in run ledgers and
	// mixed into cache keys; see Options.CodeVersion.
	CodeVersion string
	// TraceSpans enables span tracing for every campaign (see
	// Options.TraceSpans): run directories gain spans.jsonl and
	// GET /campaigns/{id}/spans streams the live span tree.
	TraceSpans bool
}

// serverMetrics wires the server's obs.Registry families. Counters are
// incremented as events happen (so they are true monotonic counters);
// gauges are set from Snapshot at scrape time.
type serverMetrics struct {
	reg *obs.Registry

	campaignsTotal *obs.Counter
	jobsDone       *obs.Counter
	jobsFailed     *obs.Counter
	jobDuration    *obs.HistogramVec
	jobErrors      *obs.CounterVec

	campaignsRunning *obs.Gauge
	jobsQueued       *obs.Gauge
	jobsRunning      *obs.Gauge
	workers          *obs.Gauge
	utilization      *obs.Gauge
	jobsPerSec       *obs.Gauge

	// Result-store families; nil unless a cache is configured, so the
	// exposition only carries them when they mean something.
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
}

func newServerMetrics() *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg:            r,
		campaignsTotal: r.Counter("pcs_campaigns_total", "Campaigns submitted since server start."),
		campaignsRunning: r.Gauge("pcs_campaigns_running",
			"Campaigns currently executing."),
		jobsQueued:  r.Gauge("pcs_jobs_queued", "Jobs waiting for a worker."),
		jobsRunning: r.Gauge("pcs_jobs_running", "Jobs currently executing."),
		jobsDone:    r.Counter("pcs_jobs_done", "Jobs completed successfully."),
		jobsFailed:  r.Counter("pcs_jobs_failed", "Jobs that returned an error or panicked."),
		workers:     r.Gauge("pcs_workers", "Configured workers across running campaigns."),
		utilization: r.Gauge("pcs_worker_utilization", "Running jobs per configured worker."),
		jobsPerSec:  r.Gauge("pcs_jobs_per_second", "Aggregate job completion rate."),
		jobDuration: r.HistogramVec("pcs_job_duration_seconds",
			"Job wall-clock duration by campaign kind.", "kind", nil),
		jobErrors: r.CounterVec("pcs_job_errors_total",
			"Failed jobs by campaign kind.", "kind"),
	}
	// Quantile summary lines derived from the histogram buckets at
	// scrape time, so dashboards get p50/p95/p99 without PromQL.
	for _, q := range []struct {
		name string
		q    float64
	}{
		{"pcs_job_duration_seconds_p50", 0.50},
		{"pcs_job_duration_seconds_p95", 0.95},
		{"pcs_job_duration_seconds_p99", 0.99},
	} {
		quant := q.q
		r.GaugeVecFunc(q.name,
			fmt.Sprintf("Job duration quantile (q=%g) by kind, interpolated from pcs_job_duration_seconds buckets at scrape time.", quant),
			"kind", func() map[string]float64 { return m.jobDuration.Quantiles(quant) })
	}
	return m
}

// enableCache registers the result-store families. The bytes gauge is
// scrape-time: caches exposing ScrapeSizeBytes (resultstore.Store
// does) re-walk the backend on scrape — so external writers to a
// shared store show up — with plain SizeBytes (write-maintained) as
// the fallback; others report 0.
func (m *serverMetrics) enableCache(cache ResultCache) {
	m.cacheHits = m.reg.Counter("resultstore_hits_total",
		"Campaign cells served from the content-addressed result store.")
	m.cacheMisses = m.reg.Counter("resultstore_misses_total",
		"Campaign cells computed because the result store had no entry.")
	m.reg.GaugeFunc("resultstore_bytes",
		"Bytes stored in the result store, refreshed on scrape.", func() float64 {
			if fresh, ok := cache.(interface{ ScrapeSizeBytes() int64 }); ok {
				return float64(fresh.ScrapeSizeBytes())
			}
			if sized, ok := cache.(interface{ SizeBytes() int64 }); ok {
				return float64(sized.SizeBytes())
			}
			return 0
		})
}

// campaignState tracks one submitted campaign.
type campaignState struct {
	id       string
	campaign Campaign
	workers  int
	cancel   context.CancelFunc

	mu       sync.Mutex
	state    string // "running", "done", "failed", "cancelled"
	progress Progress
	results  []*JobResult // indexed by job, nil until complete
	started  time.Time
	finished time.Time
	// events is the append-only job lifecycle log streamed by
	// GET /campaigns/{id}/events. The campaign_finished event is appended
	// in the same critical section that sets the terminal state, so a
	// reader observing a terminal state under mu sees the complete log.
	events []obs.JobEvent
	// spans is the append-only span log streamed by
	// GET /campaigns/{id}/spans (TraceSpans servers only). Every span
	// is recorded before Run returns, hence before the terminal state
	// is set, so a reader observing a terminal state sees them all.
	spans []tracez.Span
	// syncer flushes the campaign's artifact sidecars; non-nil only
	// while the campaign runs with an artifact directory.
	syncer ArtifactSyncer
}

// addEvent appends one lifecycle event, stamping its campaign-relative
// offset.
func (cs *campaignState) addEvent(ev obs.JobEvent) {
	cs.mu.Lock()
	cs.appendEventLocked(ev)
	cs.mu.Unlock()
}

func (cs *campaignState) appendEventLocked(ev obs.JobEvent) {
	ev.ElapsedMS = float64(time.Since(cs.started).Microseconds()) / 1e3
	cs.events = append(cs.events, ev)
}

// NewServer returns a server executing campaigns against reg. expand
// lowers every POST /campaigns body to its campaign and the requested
// pool size (0 = server default); its error becomes the 400 response.
// Production passes config.ExpandBytes — injected rather than imported
// because internal/config depends on this package.
func NewServer(reg *Registry, expand func(body []byte) (Campaign, int, error), opts ServerOptions) *Server {
	if expand == nil {
		panic("runner: NewServer needs a body expander")
	}
	ctx, cancel := context.WithCancel(context.Background())
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	metrics := newServerMetrics()
	if opts.Cache != nil {
		metrics.enableCache(opts.Cache)
	}
	return &Server{
		reg:            reg,
		defaultWorkers: opts.DefaultWorkers,
		artifactRoot:   opts.ArtifactRoot,
		expand:         expand,
		cache:          opts.Cache,
		codeVersion:    opts.CodeVersion,
		traceSpans:     opts.TraceSpans,
		baseCtx:        ctx,
		stop:           cancel,
		log:            log,
		metrics:        metrics,
		campaigns:      make(map[string]*campaignState),
		started:        time.Now(),
	}
}

// BeginDrain flips the readiness probe to 503 without cancelling
// anything: the serve loop calls it when a shutdown signal arrives, so
// orchestrators stop routing traffic while in-flight requests and the
// HTTP listener's graceful shutdown complete. It also flushes and
// fsyncs every running campaign's artifact sidecars (timeline.jsonl,
// spans.jsonl), so a kill after the grace period never truncates them
// mid-line. Close still does the actual teardown.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.mu.Lock()
	syncers := make([]ArtifactSyncer, 0, len(s.campaigns))
	for _, cs := range s.campaigns {
		cs.mu.Lock()
		if cs.syncer != nil {
			syncers = append(syncers, cs.syncer)
		}
		cs.mu.Unlock()
	}
	s.mu.Unlock()
	for _, sy := range syncers {
		if err := sy.SyncArtifacts(); err != nil {
			s.log.Warn("drain sync artifacts", "err", err)
		}
	}
}

// Draining reports whether BeginDrain has been called (or the server
// context is already gone).
func (s *Server) Draining() bool {
	return s.draining.Load() || s.baseCtx.Err() != nil
}

// Close cancels every running campaign and waits for their workers to
// drain; it is the graceful-shutdown half pcs-server calls after the
// HTTP listener stops accepting requests.
func (s *Server) Close() {
	s.draining.Store(true)
	s.stop()
	s.wg.Wait()
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("GET /campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /campaigns/{id}/spans", s.handleSpans)
	mux.HandleFunc("DELETE /campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSONResponse(w, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
	})
}

// handleReadyz is the drain-aware readiness probe: 200 while accepting
// new campaigns, 503 once draining so load balancers stop routing here
// before the listener actually closes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
		return
	}
	s.writeJSONResponse(w, map[string]string{"status": "ready"})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read campaign body: %v", err)
		return
	}
	camp, workers, err := s.expand(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	if len(camp.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, "campaign has no jobs")
		return
	}
	for i, spec := range camp.Jobs {
		if _, ok := s.reg.Lookup(spec.Kind); !ok {
			httpError(w, http.StatusBadRequest, "job %d: unknown kind %q (registered: %v)",
				i, spec.Kind, s.reg.Kinds())
			return
		}
	}
	if s.Draining() {
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}

	// Resolve the pool size now, mirroring Run, so status and metrics
	// report the actual worker count rather than the raw option.
	if workers <= 0 {
		workers = s.defaultWorkers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(camp.Jobs) {
		workers = len(camp.Jobs)
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	cs := &campaignState{
		campaign: camp,
		workers:  workers,
		cancel:   cancel,
		state:    "running",
		progress: Progress{Total: len(camp.Jobs)},
		results:  make([]*JobResult, len(camp.Jobs)),
		started:  time.Now(),
	}

	s.mu.Lock()
	s.nextID++
	cs.id = fmt.Sprintf("c%06d", s.nextID)
	s.campaigns[cs.id] = cs
	s.order = append(s.order, cs.id)
	s.mu.Unlock()

	s.metrics.campaignsTotal.Inc()
	s.log.Info("campaign submitted",
		"id", cs.id, "name", camp.Name, "jobs", len(camp.Jobs), "workers", workers)

	s.wg.Add(1)
	go s.execute(ctx, cs)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]any{
		"id":          cs.id,
		"jobs":        len(camp.Jobs),
		"status_url":  "/campaigns/" + cs.id,
		"results_url": "/campaigns/" + cs.id + "/results",
	})
}

// execute runs one campaign to completion on its own goroutine.
func (s *Server) execute(ctx context.Context, cs *campaignState) {
	defer s.wg.Done()
	defer cs.cancel()
	cs.addEvent(obs.JobEvent{Type: obs.EventCampaignStarted, Campaign: cs.campaign.Name, Index: -1})
	// Resolve the per-kind metric series once up front: With takes the
	// family lock, so calling it per job result would contend with the
	// scrape path on large campaigns.
	durationByKind := make(map[string]*obs.Histogram)
	errorsByKind := make(map[string]*obs.Counter)
	for _, spec := range cs.campaign.Jobs {
		if _, ok := durationByKind[spec.Kind]; !ok {
			durationByKind[spec.Kind] = s.metrics.jobDuration.With(spec.Kind)
			errorsByKind[spec.Kind] = s.metrics.jobErrors.With(spec.Kind)
		}
	}
	opts := Options{
		Workers: cs.workers,
		OnProgress: func(p Progress) {
			cs.mu.Lock()
			cs.progress = p
			cs.mu.Unlock()
		},
		OnJobStart: func(i int) {
			spec := cs.campaign.Jobs[i]
			cs.addEvent(obs.JobEvent{Type: obs.EventJobStarted, Index: i,
				Kind: spec.Kind, Name: spec.Name})
		},
		OnResult: func(r JobResult) {
			cs.mu.Lock()
			cs.results[r.Index] = &r
			cs.mu.Unlock()
			typ := obs.EventJobDone
			switch r.Status {
			case StatusDone:
				s.metrics.jobsDone.Inc()
				if s.metrics.cacheHits != nil {
					if r.Cached {
						s.metrics.cacheHits.Inc()
					} else {
						s.metrics.cacheMisses.Inc()
					}
				}
				durationByKind[r.Kind].Observe(r.Duration.Seconds())
			case StatusFailed:
				typ = obs.EventJobFailed
				s.metrics.jobsFailed.Inc()
				errorsByKind[r.Kind].Inc()
				durationByKind[r.Kind].Observe(r.Duration.Seconds())
			case StatusCancelled:
				typ = obs.EventJobCancelled
			}
			cs.addEvent(obs.JobEvent{Type: typ, Index: r.Index, Kind: r.Kind,
				Name: r.Name, Error: r.Error,
				DurationMS: float64(r.Duration.Microseconds()) / 1e3,
				Cached:     r.Cached,
				Resources:  r.Resources})
		},
		Cache:       s.cache,
		CodeVersion: s.codeVersion,
	}
	if s.artifactRoot != "" {
		opts.ArtifactDir = filepath.Join(s.artifactRoot, cs.id)
		opts.OnArtifacts = func(a ArtifactSyncer) {
			cs.mu.Lock()
			cs.syncer = a
			cs.mu.Unlock()
		}
	}
	if s.traceSpans {
		opts.TraceSpans = true
		opts.SpanSink = tracez.SinkFunc(func(sp *tracez.Span) {
			cs.mu.Lock()
			cs.spans = append(cs.spans, *sp)
			cs.mu.Unlock()
		})
	}
	res, err := Run(ctx, s.reg, cs.campaign, opts)

	cs.mu.Lock()
	// The artifact store is closed once Run returns; drop the syncer so
	// a late drain doesn't flush into closed files.
	cs.syncer = nil
	cs.finished = time.Now()
	if res != nil {
		// Cancellation marks never-dispatched jobs after Run returns;
		// copy the authoritative final records.
		for i := range res.Results {
			r := res.Results[i]
			cs.results[i] = &r
		}
	}
	switch {
	case ctx.Err() != nil:
		cs.state = "cancelled"
	case err != nil:
		cs.state = "failed"
	default:
		cs.state = "done"
	}
	cs.appendEventLocked(obs.JobEvent{Type: obs.EventCampaignFinished,
		Campaign: cs.campaign.Name, Index: -1, State: cs.state})
	state := cs.state
	elapsed := cs.finished.Sub(cs.started)
	cs.mu.Unlock()

	s.log.Info("campaign finished", "id", cs.id, "state", state,
		"elapsed_ms", float64(elapsed.Microseconds())/1e3)
	if err != nil && ctx.Err() == nil {
		s.log.Error("campaign error", "id", cs.id, "err", err)
	}
}

func (s *Server) lookup(id string) *campaignState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.campaigns[id]
}

// statusView is the GET /campaigns/{id} document.
type statusView struct {
	ID       string    `json:"id"`
	Name     string    `json:"name"`
	State    string    `json:"state"`
	Seed     uint64    `json:"seed"`
	Workers  int       `json:"workers"`
	Progress Progress  `json:"progress"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	// CompletedResults counts records available on the results stream.
	CompletedResults int    `json:"completed_results"`
	ResultsURL       string `json:"results_url"`
}

func (cs *campaignState) view() statusView {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	n := 0
	for _, r := range cs.results {
		if r != nil {
			n++
		}
	}
	return statusView{
		ID:               cs.id,
		Name:             cs.campaign.Name,
		State:            cs.state,
		Seed:             cs.campaign.Seed,
		Workers:          cs.workers,
		Progress:         cs.progress,
		Started:          cs.started,
		Finished:         cs.finished,
		CompletedResults: n,
		ResultsURL:       "/campaigns/" + cs.id + "/results",
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	cs := s.lookup(r.PathValue("id"))
	if cs == nil {
		httpError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	s.writeJSONResponse(w, cs.view())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	views := make([]statusView, 0, len(ids))
	for _, id := range ids {
		if cs := s.lookup(id); cs != nil {
			views = append(views, cs.view())
		}
	}
	s.writeJSONResponse(w, map[string]any{"campaigns": views})
}

// handleResults streams the completed records as JSON lines in
// job-index order; for a running campaign this is the partial result
// set so far.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	cs := s.lookup(r.PathValue("id"))
	if cs == nil {
		httpError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	cs.mu.Lock()
	records := make([]*JobResult, 0, len(cs.results))
	for _, rec := range cs.results {
		if rec != nil {
			records = append(records, rec)
		}
	}
	cs.mu.Unlock()

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for _, rec := range records {
		if err := enc.Encode(rec); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleEvents streams the campaign's job lifecycle events as NDJSON,
// following the live campaign (15 ms polling) until it reaches a
// terminal state or the client disconnects. The campaign_finished event
// is always the last line for a completed campaign.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	cs := s.lookup(r.PathValue("id"))
	if cs == nil {
		httpError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		cs.mu.Lock()
		batch := append([]obs.JobEvent(nil), cs.events[sent:]...)
		terminal := cs.state != "running"
		cs.mu.Unlock()
		for i := range batch {
			if err := enc.Encode(&batch[i]); err != nil {
				s.log.Warn("encode event stream", "campaign", cs.id, "err", err)
				return
			}
			sent++
		}
		if len(batch) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			// The finished event is appended under the same lock that set
			// the terminal state, so the batch above was complete.
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(15 * time.Millisecond):
		}
	}
}

// handleSpans streams the campaign's spans as NDJSON (tracez.Span wire
// format), following the live campaign like handleEvents until it
// reaches a terminal state or the client disconnects. Every span is
// recorded before the terminal state is set, so the final batch is
// complete. On a server without TraceSpans the stream is empty and
// closes as soon as the campaign finishes.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	cs := s.lookup(r.PathValue("id"))
	if cs == nil {
		httpError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		cs.mu.Lock()
		batch := append([]tracez.Span(nil), cs.spans[sent:]...)
		terminal := cs.state != "running"
		cs.mu.Unlock()
		for i := range batch {
			if err := enc.Encode(&batch[i]); err != nil {
				s.log.Warn("encode span stream", "campaign", cs.id, "err", err)
				return
			}
			sent++
		}
		if len(batch) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(15 * time.Millisecond):
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	cs := s.lookup(r.PathValue("id"))
	if cs == nil {
		httpError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	cs.cancel()
	s.log.Info("campaign cancel requested", "id", cs.id)
	s.writeJSONResponse(w, map[string]string{"id": cs.id, "state": "cancelling"})
}

// Metrics is a snapshot of the server's aggregate gauges.
type Metrics struct {
	CampaignsTotal   int
	CampaignsRunning int
	JobsQueued       int
	JobsRunning      int
	JobsDone         int
	JobsFailed       int
	Workers          int
	// Utilization is running jobs over configured workers of running
	// campaigns, in [0, 1].
	Utilization float64
	// JobsPerSec aggregates the completion rate of running campaigns;
	// when idle it falls back to the lifetime average.
	JobsPerSec float64
}

// Snapshot computes the current metrics.
func (s *Server) Snapshot() Metrics {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()

	var m Metrics
	var lifetimeDone int
	var runningRate float64
	for _, id := range ids {
		cs := s.lookup(id)
		if cs == nil {
			continue
		}
		cs.mu.Lock()
		m.CampaignsTotal++
		done := cs.progress.Done
		failed := cs.progress.Failed
		running := cs.progress.Running
		completed := cs.progress.Completed()
		total := cs.progress.Total
		lifetimeDone += completed
		if cs.state == "running" {
			m.CampaignsRunning++
			m.JobsRunning += running
			m.JobsQueued += total - completed - running
			m.Workers += cs.workers
			runningRate += cs.progress.JobsPerSec
		}
		m.JobsDone += done
		m.JobsFailed += failed
		cs.mu.Unlock()
	}
	if m.Workers > 0 {
		m.Utilization = float64(m.JobsRunning) / float64(m.Workers)
	}
	m.JobsPerSec = runningRate
	if m.CampaignsRunning == 0 {
		if secs := time.Since(s.started).Seconds(); secs > 0 {
			m.JobsPerSec = float64(lifetimeDone) / secs
		}
	}
	return m
}

// handleMetrics renders the obs registry: the monotonic counters are
// maintained event-driven; the point-in-time gauges are refreshed from
// Snapshot at scrape time.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Snapshot()
	s.metrics.campaignsRunning.Set(float64(m.CampaignsRunning))
	s.metrics.jobsQueued.Set(float64(m.JobsQueued))
	s.metrics.jobsRunning.Set(float64(m.JobsRunning))
	s.metrics.workers.Set(float64(m.Workers))
	s.metrics.utilization.Set(m.Utilization)
	s.metrics.jobsPerSec.Set(m.JobsPerSec)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.metrics.reg.WritePrometheus(w); err != nil {
		s.log.Warn("write metrics", "err", err)
	}
}

// Kinds returns the sorted kind names the server accepts, for startup
// logging.
func (s *Server) Kinds() []string {
	k := s.reg.Kinds()
	sort.Strings(k)
	return k
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) writeJSONResponse(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.log.Warn("encode response", "err", err)
	}
}
