// Package ledger implements the hash-chained run ledger: a
// ledger.jsonl file alongside each campaign's artifacts in which every
// entry carries the SHA-256 of the previous entry's line. The chain
// opens with the campaign manifest (spec digest, seed, code version),
// carries one digest per results.jsonl line, and closes with the
// campaign summary and a whole-file results digest — so any published
// figure derived from a run directory is verifiable back to the exact
// spec, seed and binary that produced it, and any post-hoc edit to
// results.jsonl (or to the ledger itself) breaks the chain.
//
// The format is deliberately line-oriented and self-contained: each
// line is one JSON Entry, prev-linked, append-only. `pcs verify`
// re-walks the chain (see VerifyDir) and can re-execute sampled cells
// to confirm bit-identical reproduction.
package ledger

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// FileName is the ledger's name inside a run directory.
const FileName = "ledger.jsonl"

// Entry types, in chain order: one manifest, n results, zero or more
// sidecars, one summary.
const (
	TypeManifest = "manifest"
	TypeResult   = "result"
	TypeSidecar  = "sidecar"
	TypeSummary  = "summary"
)

// Entry is one ledger line. Prev is the hex SHA-256 of the previous
// line's bytes (without the trailing newline); the first entry's Prev
// is empty. Seq is the zero-based line number, making truncation as
// detectable as modification.
type Entry struct {
	Seq  int             `json:"seq"`
	Type string          `json:"type"`
	Prev string          `json:"prev"`
	Body json.RawMessage `json:"body"`
}

// Manifest is the opening entry's body: the identity of the campaign
// execution the chain closes over.
type Manifest struct {
	Campaign string `json:"campaign"`
	Seed     uint64 `json:"seed"`
	Jobs     int    `json:"jobs"`
	Workers  int    `json:"workers"`
	// CodeVersion is the build identity of the producing binary (see
	// internal/version); also the code-version component of result-store
	// cache keys.
	CodeVersion string `json:"code_version,omitempty"`
	// SpecsDigest is SpecsDigest() over the campaign's job-spec array,
	// recomputable from manifest.json's "specs" field.
	SpecsDigest string `json:"specs_digest"`
}

// Result is one per-job entry body. Digest is LineDigest over the
// job's results.jsonl line.
type Result struct {
	Index  int    `json:"index"`
	Kind   string `json:"kind"`
	Name   string `json:"name,omitempty"`
	Seed   uint64 `json:"seed"`
	Status string `json:"status"`
	// Cached marks a result served from the content-addressed store
	// rather than computed. It lives here (and on the job span in
	// spans.jsonl), not in results.jsonl, so result files stay
	// byte-identical across cached and uncached executions.
	Cached bool   `json:"cached,omitempty"`
	Digest string `json:"digest"`
}

// Sidecar is one wall-clock artifact entry body: a run-directory file
// (spans.jsonl; runs made before job spans also list timeline.jsonl)
// hash-chained into the ledger so `pcs verify` covers every artifact,
// not just the deterministic results. Sidecar entries sit between the
// results and the summary, and verification treats every name alike.
type Sidecar struct {
	// Name is the file's name inside the run directory.
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	Digest string `json:"digest"` // hex SHA-256 of the whole file
}

// Summary is the closing entry's body. ResultsDigest is the SHA-256 of
// the entire results.jsonl file.
type Summary struct {
	Done          int    `json:"done"`
	Failed        int    `json:"failed"`
	Cancelled     int    `json:"cancelled"`
	ResultsDigest string `json:"results_digest"`
}

// LineDigest is the hex SHA-256 of one line's bytes, excluding any
// trailing newline.
func LineDigest(line []byte) string {
	line = bytes.TrimRight(line, "\r\n")
	sum := sha256.Sum256(line)
	return hex.EncodeToString(sum[:])
}

// Writer appends chain-linked entries to an output stream. Not safe
// for concurrent use; the artifact store serialises writes.
type Writer struct {
	w    io.Writer
	seq  int
	prev string
}

// NewWriter starts a fresh chain on w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Append marshals body into the next entry and writes it as one line.
func (lw *Writer) Append(typ string, body any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("ledger: marshal %s body: %w", typ, err)
	}
	line, err := json.Marshal(Entry{Seq: lw.seq, Type: typ, Prev: lw.prev, Body: raw})
	if err != nil {
		return fmt.Errorf("ledger: marshal %s entry: %w", typ, err)
	}
	if _, err := lw.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("ledger: write entry %d: %w", lw.seq, err)
	}
	lw.prev = LineDigest(line)
	lw.seq++
	return nil
}

// Read parses a ledger stream, verifying the hash chain and sequence
// numbers as it goes. It returns the entries only if every line's Prev
// matches the digest of the line before it.
func Read(r io.Reader) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		entries []Entry
		prev    string
	)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("ledger: line %d: %w", len(entries), err)
		}
		if e.Seq != len(entries) {
			return nil, fmt.Errorf("ledger: line %d: seq %d out of order (truncated or spliced chain)", len(entries), e.Seq)
		}
		if e.Prev != prev {
			return nil, fmt.Errorf("ledger: entry %d: chain broken: prev %.12s… does not match previous entry digest %.12s…", e.Seq, e.Prev, prev)
		}
		prev = LineDigest(line)
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ledger: read: %w", err)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("ledger: empty ledger")
	}
	return entries, nil
}
