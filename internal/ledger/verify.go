package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/resultstore"
)

// SpecsDigest is the hex SHA-256 of the canonical JSON form of a
// job-spec array. Canonicalization means the digest is recomputable
// from manifest.json's indented "specs" field as well as from the
// in-memory spec slice the runner marshalled.
func SpecsDigest(specs json.RawMessage) (string, error) {
	canon, err := resultstore.CanonicalJSON(specs)
	if err != nil {
		return "", fmt.Errorf("ledger: specs digest: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// Report is the outcome of a successful VerifyDir: the verified chain
// contents, ready for display or for sampling cells to re-execute.
type Report struct {
	Dir      string
	Manifest Manifest
	Results  []Result
	// Sidecars lists the wall-clock artifacts the chain covers
	// (spans.jsonl; timeline.jsonl too in older runs); their file
	// digests were verified.
	Sidecars []Sidecar
	Summary  Summary
	// Cached counts results the chain records as cache hits.
	Cached int
}

// VerifyDir re-walks the hash chain of dir's ledger.jsonl and checks
// it against the other artifacts:
//
//   - the chain itself links (Read) and has the manifest/results/summary
//     shape with contiguous job indices;
//   - every per-job digest matches the corresponding results.jsonl line,
//     and the closing entry's whole-file digest matches the file;
//   - the opening entry agrees with manifest.json (campaign, seed, job
//     and worker counts, specs digest);
//   - the closing entry's counts agree with summary.json.
//
// Any discrepancy — a flipped byte in results.jsonl, an edited or
// truncated ledger, a swapped manifest — returns a descriptive error.
func VerifyDir(dir string) (*Report, error) {
	lf, err := os.Open(filepath.Join(dir, FileName))
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	entries, err := Read(lf)
	lf.Close()
	if err != nil {
		return nil, err
	}

	if entries[0].Type != TypeManifest {
		return nil, fmt.Errorf("ledger: first entry is %q, want %q", entries[0].Type, TypeManifest)
	}
	last := entries[len(entries)-1]
	if last.Type != TypeSummary {
		return nil, fmt.Errorf("ledger: last entry is %q, want %q (run not closed?)", last.Type, TypeSummary)
	}
	rep := &Report{Dir: dir}
	if err := json.Unmarshal(entries[0].Body, &rep.Manifest); err != nil {
		return nil, fmt.Errorf("ledger: manifest body: %w", err)
	}
	if err := json.Unmarshal(last.Body, &rep.Summary); err != nil {
		return nil, fmt.Errorf("ledger: summary body: %w", err)
	}
	// Middle entries: all results first, then any sidecars. Runs from
	// before sidecar chaining simply have none.
	for _, e := range entries[1 : len(entries)-1] {
		switch e.Type {
		case TypeResult:
			if len(rep.Sidecars) > 0 {
				return nil, fmt.Errorf("ledger: entry %d: result after sidecar entries", e.Seq)
			}
			var r Result
			if err := json.Unmarshal(e.Body, &r); err != nil {
				return nil, fmt.Errorf("ledger: entry %d body: %w", e.Seq, err)
			}
			if r.Index != len(rep.Results) {
				return nil, fmt.Errorf("ledger: entry %d: job index %d out of order", e.Seq, r.Index)
			}
			if r.Cached {
				rep.Cached++
			}
			rep.Results = append(rep.Results, r)
		case TypeSidecar:
			var sc Sidecar
			if err := json.Unmarshal(e.Body, &sc); err != nil {
				return nil, fmt.Errorf("ledger: entry %d body: %w", e.Seq, err)
			}
			if sc.Name == "" || sc.Name != filepath.Base(sc.Name) {
				return nil, fmt.Errorf("ledger: entry %d: bad sidecar name %q", e.Seq, sc.Name)
			}
			rep.Sidecars = append(rep.Sidecars, sc)
		default:
			return nil, fmt.Errorf("ledger: entry %d is %q, want %q or %q", e.Seq, e.Type, TypeResult, TypeSidecar)
		}
	}
	// Every chained sidecar file must still match its recorded digest.
	for _, sc := range rep.Sidecars {
		data, err := os.ReadFile(filepath.Join(dir, sc.Name))
		if err != nil {
			return nil, fmt.Errorf("ledger: sidecar %s: %w", sc.Name, err)
		}
		if int64(len(data)) != sc.Bytes {
			return nil, fmt.Errorf("ledger: sidecar %s is %d bytes, chain records %d", sc.Name, len(data), sc.Bytes)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != sc.Digest {
			return nil, fmt.Errorf("ledger: sidecar %s digest mismatch: file %.12s… vs chain %.12s… (artifact modified after the run)", sc.Name, got, sc.Digest)
		}
	}
	if rep.Manifest.Jobs != len(rep.Results) {
		return nil, fmt.Errorf("ledger: manifest declares %d jobs but chain has %d result entries", rep.Manifest.Jobs, len(rep.Results))
	}

	// results.jsonl: per-line and whole-file digests.
	data, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != rep.Summary.ResultsDigest {
		return nil, fmt.Errorf("ledger: results.jsonl digest mismatch: file %.12s… vs chain %.12s… (results modified after the run)", got, rep.Summary.ResultsDigest)
	}
	lines := splitLines(data)
	if len(lines) != len(rep.Results) {
		return nil, fmt.Errorf("ledger: results.jsonl has %d lines but chain has %d result entries", len(lines), len(rep.Results))
	}
	for i, r := range rep.Results {
		if got := LineDigest(lines[i]); got != r.Digest {
			return nil, fmt.Errorf("ledger: result %d digest mismatch: line %.12s… vs chain %.12s…", i, got, r.Digest)
		}
	}

	// manifest.json: the chain's opening entry must describe this run.
	var mf struct {
		Campaign string          `json:"campaign"`
		Seed     uint64          `json:"seed"`
		Jobs     int             `json:"jobs"`
		Workers  int             `json:"workers"`
		Specs    json.RawMessage `json:"specs"`
	}
	mdata, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if err := json.Unmarshal(mdata, &mf); err != nil {
		return nil, fmt.Errorf("ledger: manifest.json: %w", err)
	}
	if mf.Campaign != rep.Manifest.Campaign || mf.Seed != rep.Manifest.Seed ||
		mf.Jobs != rep.Manifest.Jobs || mf.Workers != rep.Manifest.Workers {
		return nil, fmt.Errorf("ledger: manifest.json (%q seed=%d jobs=%d workers=%d) disagrees with chain (%q seed=%d jobs=%d workers=%d)",
			mf.Campaign, mf.Seed, mf.Jobs, mf.Workers,
			rep.Manifest.Campaign, rep.Manifest.Seed, rep.Manifest.Jobs, rep.Manifest.Workers)
	}
	specsDigest, err := SpecsDigest(mf.Specs)
	if err != nil {
		return nil, err
	}
	if specsDigest != rep.Manifest.SpecsDigest {
		return nil, fmt.Errorf("ledger: manifest.json specs digest %.12s… disagrees with chain %.12s… (specs modified after the run)", specsDigest, rep.Manifest.SpecsDigest)
	}

	// summary.json: terminal counts must agree with the closing entry.
	var sf struct {
		Done      int `json:"done"`
		Failed    int `json:"failed"`
		Cancelled int `json:"cancelled"`
	}
	sdata, err := os.ReadFile(filepath.Join(dir, "summary.json"))
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if err := json.Unmarshal(sdata, &sf); err != nil {
		return nil, fmt.Errorf("ledger: summary.json: %w", err)
	}
	if sf.Done != rep.Summary.Done || sf.Failed != rep.Summary.Failed || sf.Cancelled != rep.Summary.Cancelled {
		return nil, fmt.Errorf("ledger: summary.json counts (%d/%d/%d) disagree with chain (%d/%d/%d)",
			sf.Done, sf.Failed, sf.Cancelled, rep.Summary.Done, rep.Summary.Failed, rep.Summary.Cancelled)
	}
	return rep, nil
}

// splitLines splits a JSONL file into lines, dropping the final empty
// slice after the trailing newline.
func splitLines(data []byte) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		i := 0
		for i < len(data) && data[i] != '\n' {
			i++
		}
		line := data[:i]
		if i < len(data) {
			i++
		}
		data = data[i:]
		if len(line) > 0 {
			out = append(out, line)
		}
	}
	return out
}
