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
	"time"

	"repro/internal/ledger"
	"repro/internal/obs/tracez"
)

// Artifact layout (in the spirit of a paper run_all.sh workflow): each
// campaign execution owns one directory, normally runs/<timestamp>/,
// holding
//
//	manifest.json   what ran: campaign name, seed, job specs, workers
//	results.jsonl   one JobResult per line, in job-index order
//	summary.json    terminal counts and elapsed time
//	spans.jsonl     one tracez.Span per line, in end order: the campaign,
//	                one job span per job with its outcome and resources,
//	                and the phases inside each job
//	ledger.jsonl    hash-chained digests (see internal/ledger)
//
// results.jsonl is written from the deterministic per-job records only,
// so two executions of the same campaign+seed produce byte-identical
// files regardless of worker count. spans.jsonl is the deliberate
// exception, the run's one wall-clock sidecar: it records when each
// job ran and what it cost, so it varies run to run and is never an
// input to result comparison. ledger.jsonl chains a digest of every
// results.jsonl line back to the spec digest, seed and code version —
// and closes over the sidecar with a whole-file digest — so
// `pcs verify` can prove the directory's integrity after the fact.

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
	// each is hash-chained into ledger.jsonl at finish. A run writes
	// spans.jsonl only; older runs list timeline.jsonl too.
	Sidecars []string `json:"sidecars,omitempty"`
	Specs    []Spec   `json:"specs"`
}

type artifactStore struct {
	dir string
	// c, workers, codeVersion feed the ledger's manifest entry.
	c           Campaign
	workers     int
	codeVersion string

	// spans is the spans.jsonl sink, the run's one sidecar.
	spans *tracez.JSONL
}

// newArtifactStore creates dir if needed, writes the manifest and opens
// the span sidecar.
func newArtifactStore(dir string, c Campaign, workers int, codeVersion string) (*artifactStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: artifact dir: %w", err)
	}
	m := manifest{
		Campaign: c.Name,
		Seed:     c.Seed,
		Jobs:     len(c.Jobs),
		Workers:  workers,
		Created:  time.Now().UTC(),
		Sidecars: []string{tracez.FileName},
		Specs:    c.Jobs,
	}
	if err := writeJSON(filepath.Join(dir, "manifest.json"), m); err != nil {
		return nil, err
	}
	spans, err := tracez.CreateJSONL(filepath.Join(dir, tracez.FileName))
	if err != nil {
		return nil, fmt.Errorf("runner: %w", err)
	}
	return &artifactStore{
		dir: dir,
		c:   c, workers: workers, codeVersion: codeVersion,
		spans: spans,
	}, nil
}

// SyncArtifacts flushes and fsyncs spans.jsonl so a process killed
// right after (server drain, cancellation) leaves whole lines on disk.
// Implements ArtifactSyncer.
func (a *artifactStore) SyncArtifacts() error {
	return a.spans.Sync()
}

// finish writes results.jsonl (index order) and summary.json, closes
// spans.jsonl and writes the hash-chained ledger.jsonl. It runs on
// every campaign exit — including cancellation — so a cancelled run
// still leaves a closed, verifiable chain. The tracer times the
// bookkeeping itself; the ledger.append span can no longer land in
// spans.jsonl — the sidecar is already hashed by then — so it reaches
// only a live sink (the server's span stream).
func (a *artifactStore) finish(results []JobResult, res *CampaignResult, tracer *tracez.Tracer) error {
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
	// Seal the span sidecar, then digest it for the ledger.
	if err := a.spans.Close(); err != nil {
		return err
	}
	sc, err := fileSidecar(a.dir, tracez.FileName)
	if err != nil {
		return err
	}
	lspan := tracer.StartRoot("ledger.append")
	err = a.writeLedger(results, res, lineDigests, hex.EncodeToString(fileHash.Sum(nil)), sc)
	lspan.SetInt("entries", int64(len(results)+3))
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
// sidecar's digest.
func (a *artifactStore) writeLedger(results []JobResult, res *CampaignResult, lineDigests []string, resultsDigest string, sidecar ledger.Sidecar) error {
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
	if err == nil {
		err = lw.Append(ledger.TypeSidecar, sidecar)
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
