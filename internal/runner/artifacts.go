package runner

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
)

// Artifact layout (in the spirit of a paper run_all.sh workflow): each
// campaign execution owns one directory, normally runs/<timestamp>/,
// holding
//
//	manifest.json   what ran: campaign name, seed, job specs, workers
//	results.jsonl   one JobResult per line, in job-index order
//	summary.json    terminal counts and elapsed time
//	timeline.jsonl  one obs.JobEvent per line, in wall-clock order
//	spans.jsonl     one tracez.Span per line (Options.TraceSpans only)
//	ledger.jsonl    hash-chained digests (see internal/ledger)
//
// results.jsonl is written from the deterministic per-job records only,
// so two executions of the same campaign+seed produce byte-identical
// files regardless of worker count. timeline.jsonl and spans.jsonl are
// the deliberate exceptions: they record when each job started and
// finished (and what ran inside it), so they vary run to run and are
// never an input to result comparison. ledger.jsonl chains a digest of
// every results.jsonl line back to the spec digest, seed and code
// version — and closes over the wall-clock sidecars with whole-file
// digests — so `pcs verify` can prove the directory's integrity after
// the fact.

// NewRunDir creates and returns a fresh timestamped run directory under
// root (e.g. "runs"). Collisions get a numeric suffix.
func NewRunDir(root string) (string, error) {
	stamp := time.Now().UTC().Format("20060102T150405Z")
	for i := 0; ; i++ {
		name := stamp
		if i > 0 {
			name = fmt.Sprintf("%s-%d", stamp, i)
		}
		dir := filepath.Join(root, name)
		err := os.MkdirAll(root, 0o755)
		if err != nil {
			return "", fmt.Errorf("runner: create run root: %w", err)
		}
		err = os.Mkdir(dir, 0o755)
		if err == nil {
			return dir, nil
		}
		if !os.IsExist(err) {
			return "", fmt.Errorf("runner: create run dir: %w", err)
		}
	}
}

// manifest is the at-start record of what a campaign execution will do.
type manifest struct {
	Campaign string    `json:"campaign"`
	Seed     uint64    `json:"seed"`
	Jobs     int       `json:"jobs"`
	Workers  int       `json:"workers"`
	Created  time.Time `json:"created"`
	// Sidecars lists the wall-clock artifacts this run will produce;
	// each is hash-chained into ledger.jsonl at finish.
	Sidecars []string `json:"sidecars,omitempty"`
	Specs    []Spec   `json:"specs"`
}

type artifactStore struct {
	dir      string
	campaign string
	// c, workers, codeVersion feed the ledger's manifest entry.
	c           Campaign
	workers     int
	codeVersion string

	// Timeline state. Workers emit events concurrently; the mutex keeps
	// lines whole and the start time anchors the elapsed offsets.
	tmu   sync.Mutex
	tf    *os.File
	tw    *bufio.Writer
	tenc  *json.Encoder
	terr  error
	start time.Time

	// spans is the spans.jsonl sink, nil unless tracing is enabled.
	spans *tracez.JSONL
	// sidecars names the wall-clock artifacts (in write order) listed
	// in the manifest and hash-chained into the ledger at finish.
	sidecars []string
}

// newArtifactStore creates dir if needed, writes the manifest and opens
// the timeline (and, with tracing, the span sidecar).
func newArtifactStore(dir string, c Campaign, workers int, codeVersion string, traceSpans bool) (*artifactStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: artifact dir: %w", err)
	}
	sidecars := []string{"timeline.jsonl"}
	if traceSpans {
		sidecars = append(sidecars, tracez.FileName)
	}
	m := manifest{
		Campaign: c.Name,
		Seed:     c.Seed,
		Jobs:     len(c.Jobs),
		Workers:  workers,
		Created:  time.Now().UTC(),
		Sidecars: sidecars,
		Specs:    c.Jobs,
	}
	if err := writeJSON(filepath.Join(dir, "manifest.json"), m); err != nil {
		return nil, err
	}
	tf, err := os.Create(filepath.Join(dir, "timeline.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("runner: timeline.jsonl: %w", err)
	}
	a := &artifactStore{
		dir: dir, campaign: c.Name,
		c: c, workers: workers, codeVersion: codeVersion,
		tf: tf, start: time.Now(),
		sidecars: sidecars,
	}
	a.tw = bufio.NewWriter(tf)
	a.tenc = json.NewEncoder(a.tw)
	if traceSpans {
		a.spans, err = tracez.CreateJSONL(filepath.Join(dir, tracez.FileName))
		if err != nil {
			tf.Close()
			return nil, fmt.Errorf("runner: %s: %w", tracez.FileName, err)
		}
	}
	a.event(obs.JobEvent{Type: obs.EventCampaignStarted, Campaign: c.Name, Index: -1})
	return a, nil
}

// SyncArtifacts flushes and fsyncs the buffered wall-clock sidecars so
// a process killed right after (server drain, cancellation) leaves
// whole lines on disk. Implements ArtifactSyncer.
func (a *artifactStore) SyncArtifacts() error {
	a.tmu.Lock()
	err := a.terr
	if a.tf != nil {
		if ferr := a.tw.Flush(); ferr != nil && err == nil {
			err = fmt.Errorf("runner: flush timeline.jsonl: %w", ferr)
		}
		if serr := a.tf.Sync(); serr != nil && err == nil {
			err = fmt.Errorf("runner: fsync timeline.jsonl: %w", serr)
		}
	}
	a.tmu.Unlock()
	if a.spans != nil {
		if serr := a.spans.Sync(); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}

// event appends one timeline line, stamping the elapsed offset. Write
// errors latch and surface from finish.
func (a *artifactStore) event(ev obs.JobEvent) {
	a.tmu.Lock()
	defer a.tmu.Unlock()
	if a.terr != nil || a.tf == nil {
		return
	}
	ev.ElapsedMS = float64(time.Since(a.start).Microseconds()) / 1e3
	if err := a.tenc.Encode(&ev); err != nil {
		a.terr = fmt.Errorf("runner: encode timeline event: %w", err)
	}
}

// jobStarted records a worker picking up job i.
func (a *artifactStore) jobStarted(i int, spec Spec) {
	a.event(obs.JobEvent{Type: obs.EventJobStarted, Index: i, Kind: spec.Kind, Name: spec.Name})
}

// jobFinished records a job reaching a terminal state.
func (a *artifactStore) jobFinished(r JobResult) {
	typ := obs.EventJobDone
	switch r.Status {
	case StatusFailed:
		typ = obs.EventJobFailed
	case StatusCancelled:
		typ = obs.EventJobCancelled
	}
	a.event(obs.JobEvent{
		Type:       typ,
		Index:      r.Index,
		Kind:       r.Kind,
		Name:       r.Name,
		Error:      r.Error,
		DurationMS: float64(r.Duration.Microseconds()) / 1e3,
		Cached:     r.Cached,
		Resources:  r.Resources,
	})
}

// closeTimeline writes the closing event and flushes the file.
func (a *artifactStore) closeTimeline(res *CampaignResult) error {
	state := "done"
	if res.Failed > 0 {
		state = "failed"
	}
	if res.Cancelled > 0 {
		state = "cancelled"
	}
	a.event(obs.JobEvent{Type: obs.EventCampaignFinished, Campaign: a.campaign, Index: -1, State: state})
	a.tmu.Lock()
	defer a.tmu.Unlock()
	if err := a.tw.Flush(); err != nil && a.terr == nil {
		a.terr = fmt.Errorf("runner: flush timeline.jsonl: %w", err)
	}
	if err := a.tf.Close(); err != nil && a.terr == nil {
		a.terr = fmt.Errorf("runner: close timeline.jsonl: %w", err)
	}
	// Late SyncArtifacts calls (a drain racing campaign completion)
	// must not flush into a closed file.
	a.tf = nil
	return a.terr
}

// finish closes the timeline and span sidecars, writes results.jsonl
// (index order), summary.json and the hash-chained ledger.jsonl. It
// runs on every campaign exit — including cancellation — so a
// cancelled run still leaves a closed, verifiable chain. The tracer
// (nil when tracing is off) times the bookkeeping itself; note the
// ledger.append span can no longer land in spans.jsonl — the sidecar
// is already hashed by then — so it reaches only live sinks (the
// server's span stream).
func (a *artifactStore) finish(results []JobResult, res *CampaignResult, tracer *tracez.Tracer) error {
	if err := a.closeTimeline(res); err != nil {
		return err
	}
	wspan := tracer.StartRoot("results.write")
	f, err := os.Create(filepath.Join(a.dir, "results.jsonl"))
	if err != nil {
		return fmt.Errorf("runner: results.jsonl: %w", err)
	}
	// json.Marshal + '\n' produces the same bytes json.Encoder.Encode
	// would, and hands us each line for digesting.
	w := bufio.NewWriter(f)
	fileHash := sha256.New()
	lineDigests := make([]string, len(results))
	for i := range results {
		line, err := json.Marshal(&results[i])
		if err != nil {
			f.Close()
			return fmt.Errorf("runner: encode result %d: %w", i, err)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			f.Close()
			return fmt.Errorf("runner: write result %d: %w", i, err)
		}
		fileHash.Write(line)
		lineDigests[i] = ledger.LineDigest(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("runner: flush results.jsonl: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("runner: close results.jsonl: %w", err)
	}
	wspan.SetInt("jobs", int64(len(results)))
	wspan.End()
	summary := struct {
		Done      int           `json:"done"`
		Failed    int           `json:"failed"`
		Cancelled int           `json:"cancelled"`
		Elapsed   time.Duration `json:"elapsed_ns"`
	}{res.Done, res.Failed, res.Cancelled, res.Elapsed}
	if err := writeJSON(filepath.Join(a.dir, "summary.json"), summary); err != nil {
		return err
	}
	// Seal the span sidecar, then digest every sidecar for the ledger.
	if a.spans != nil {
		if err := a.spans.Close(); err != nil {
			return err
		}
	}
	sidecars := make([]ledger.Sidecar, 0, len(a.sidecars))
	for _, name := range a.sidecars {
		sc, err := fileSidecar(a.dir, name)
		if err != nil {
			return err
		}
		sidecars = append(sidecars, sc)
	}
	lspan := tracer.StartRoot("ledger.append")
	err = a.writeLedger(results, res, lineDigests, hex.EncodeToString(fileHash.Sum(nil)), sidecars)
	lspan.SetInt("entries", int64(len(results)+len(sidecars)+2))
	lspan.End()
	return err
}

// fileSidecar digests one run-directory file for its ledger entry.
func fileSidecar(dir, name string) (ledger.Sidecar, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return ledger.Sidecar{}, fmt.Errorf("runner: sidecar %s: %w", name, err)
	}
	sum := sha256.Sum256(data)
	return ledger.Sidecar{
		Name:   name,
		Bytes:  int64(len(data)),
		Digest: hex.EncodeToString(sum[:]),
	}, nil
}

// writeLedger emits the hash chain closing over the campaign's spec
// digest, seed, code version, every result digest and the wall-clock
// sidecar digests.
func (a *artifactStore) writeLedger(results []JobResult, res *CampaignResult, lineDigests []string, resultsDigest string, sidecars []ledger.Sidecar) error {
	specsRaw, err := json.Marshal(a.c.Jobs)
	if err != nil {
		return fmt.Errorf("runner: marshal specs for ledger: %w", err)
	}
	specsDigest, err := ledger.SpecsDigest(specsRaw)
	if err != nil {
		return fmt.Errorf("runner: %w", err)
	}
	f, err := os.Create(filepath.Join(a.dir, ledger.FileName))
	if err != nil {
		return fmt.Errorf("runner: %s: %w", ledger.FileName, err)
	}
	w := bufio.NewWriter(f)
	lw := ledger.NewWriter(w)
	err = lw.Append(ledger.TypeManifest, ledger.Manifest{
		Campaign:    a.c.Name,
		Seed:        a.c.Seed,
		Jobs:        len(a.c.Jobs),
		Workers:     a.workers,
		CodeVersion: a.codeVersion,
		SpecsDigest: specsDigest,
	})
	for i := range results {
		if err != nil {
			break
		}
		r := &results[i]
		err = lw.Append(ledger.TypeResult, ledger.Result{
			Index:  r.Index,
			Kind:   r.Kind,
			Name:   r.Name,
			Seed:   r.Seed,
			Status: string(r.Status),
			Cached: r.Cached,
			Digest: lineDigests[i],
		})
	}
	for _, sc := range sidecars {
		if err != nil {
			break
		}
		err = lw.Append(ledger.TypeSidecar, sc)
	}
	if err == nil {
		err = lw.Append(ledger.TypeSummary, ledger.Summary{
			Done:          res.Done,
			Failed:        res.Failed,
			Cancelled:     res.Cancelled,
			ResultsDigest: resultsDigest,
		})
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("runner: close %s: %w", ledger.FileName, cerr)
	}
	return err
}

// writeJSON encodes v (two-space indent, trailing newline) and only
// then writes it to path in one call, so a value that fails to encode
// leaves no file behind.
func writeJSON(path string, v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("runner: encode %s: %w", filepath.Base(path), err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		return fmt.Errorf("runner: %s: %w", filepath.Base(path), err)
	}
	return nil
}
