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
)

// Server turns the campaign runner into an HTTP job service — the
// pcs-server wire surface:
//
//	POST   /campaigns               submit a campaign, returns its id
//	GET    /campaigns               list campaigns
//	GET    /campaigns/{id}          status, progress and ETA
//	GET    /campaigns/{id}/results  JSONL stream of completed records
//	GET    /campaigns/{id}/spans    NDJSON stream of the campaign's spans
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

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	// draining flips once BeginDrain is called; /readyz reports 503 so
	// load balancers stop routing new submissions while in-flight
	// requests finish.
	draining atomic.Bool

	log *slog.Logger

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
	// spans is the append-only NDJSON span log streamed by
	// GET /campaigns/{id}/spans: the lines the run's spans.jsonl gets
	// and, with a run directory, the ledger.append span written after
	// that file is sealed. Every span is written before Run returns,
	// hence before the terminal state is set, so a reader observing a
	// terminal state under mu sees them all.
	spans []byte
	// wake is closed, and replaced, on each span append; the final one
	// is closed when the campaign reaches its terminal state.
	wake chan struct{}
	// syncer flushes the campaign's span sidecar; non-nil only while
	// the campaign runs with an artifact directory.
	syncer ArtifactSyncer
}

// Write appends one span line to the campaign's log and wakes its
// /spans readers: the campaign's live span sink (Options.SpanSink).
func (cs *campaignState) Write(line []byte) (int, error) {
	cs.mu.Lock()
	cs.spans = append(cs.spans, line...)
	close(cs.wake)
	cs.wake = make(chan struct{})
	cs.mu.Unlock()
	return len(line), nil
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
	return &Server{
		reg:            reg,
		defaultWorkers: opts.DefaultWorkers,
		artifactRoot:   opts.ArtifactRoot,
		expand:         expand,
		cache:          opts.Cache,
		codeVersion:    opts.CodeVersion,
		baseCtx:        ctx,
		stop:           cancel,
		log:            log,
		campaigns:      make(map[string]*campaignState),
		started:        time.Now(),
	}
}

// BeginDrain flips the readiness probe to 503 without cancelling
// anything: the serve loop calls it when a shutdown signal arrives, so
// orchestrators stop routing traffic while in-flight requests and the
// HTTP listener's graceful shutdown complete. It also flushes and
// fsyncs every running campaign's spans.jsonl, so a kill after the
// grace period never truncates it mid-line. Close still does the
// actual teardown.
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
		wake:     make(chan struct{}),
	}

	s.mu.Lock()
	s.nextID++
	cs.id = fmt.Sprintf("c%06d", s.nextID)
	s.campaigns[cs.id] = cs
	s.order = append(s.order, cs.id)
	s.mu.Unlock()

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
	opts := Options{
		Workers: cs.workers,
		OnProgress: func(p Progress) {
			cs.mu.Lock()
			cs.progress = p
			cs.mu.Unlock()
		},
		OnResult: func(r JobResult) {
			cs.mu.Lock()
			cs.results[r.Index] = &r
			cs.mu.Unlock()
		},
		SpanSink:    cs,
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
	close(cs.wake)
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

// handleSpans streams the campaign's spans as NDJSON, the lines of its
// spans.jsonl, and follows a running campaign: it writes what was
// appended each time the campaign's wake channel closes, and ends once
// the campaign is terminal (its last spans written) or the client
// disconnects.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	cs := s.lookup(r.PathValue("id"))
	if cs == nil {
		httpError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Send the headers now: a campaign may run a while before its
		// first span ends.
		flusher.Flush()
	}
	for sent := 0; ; {
		cs.mu.Lock()
		// The log is append-only: bytes below its length never change,
		// so the batch may be written after the lock is released.
		batch := cs.spans[sent:]
		wake := cs.wake
		terminal := cs.state != "running"
		cs.mu.Unlock()
		if len(batch) > 0 {
			if _, err := w.Write(batch); err != nil {
				s.log.Warn("write span stream", "campaign", cs.id, "err", err)
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			sent += len(batch)
		}
		if terminal {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
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
