package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/resultstore"
)

func TestChainRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Append(TypeManifest, Manifest{Campaign: "c", Seed: 1, Jobs: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(TypeResult, Result{Index: 0, Kind: "k", Status: "done", Digest: "d0"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(TypeResult, Result{Index: 1, Kind: "k", Status: "done", Digest: "d1", Cached: true}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(TypeSummary, Summary{Done: 2}); err != nil {
		t.Fatal(err)
	}

	entries, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(entries) != 4 {
		t.Fatalf("entries: got %d want 4", len(entries))
	}
	if entries[0].Prev != "" {
		t.Errorf("first entry prev: got %q want empty", entries[0].Prev)
	}
	for i, e := range entries {
		if e.Seq != i {
			t.Errorf("entry %d: seq %d", i, e.Seq)
		}
	}
}

func TestChainTamperDetection(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := w.Append(TypeResult, Result{Index: i, Status: "done", Digest: fmt.Sprintf("d%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")

	// Editing any middle line breaks the next line's prev link.
	edited := strings.Replace(lines[1], `"done"`, `"failed"`, 1)
	tampered := strings.Join([]string{lines[0], edited, lines[2]}, "\n") + "\n"
	if _, err := Read(strings.NewReader(tampered)); err == nil {
		t.Error("edited entry: want chain error")
	}

	// Deleting a line breaks both seq and prev.
	spliced := strings.Join([]string{lines[0], lines[2]}, "\n") + "\n"
	if _, err := Read(strings.NewReader(spliced)); err == nil {
		t.Error("spliced chain: want error")
	}

	// Truncation (dropping the tail) still parses: append-only chains
	// cannot self-certify completeness, which is why VerifyDir requires
	// the final entry to be the summary.
	if _, err := Read(strings.NewReader(lines[0] + "\n")); err != nil {
		t.Errorf("prefix read: %v", err)
	}

	if _, err := Read(strings.NewReader("")); err == nil {
		t.Error("empty ledger: want error")
	}
}

// TestAppendMatchesTwoStepMarshal checks Append's one-pass encoding
// against marshalling the body first and the Entry around it, for all
// four entry types, with strings encoding/json escapes or coerces, and
// a raw body as a re-chaining reader passes it.
func TestAppendMatchesTwoStepMarshal(t *testing.T) {
	odd := "<a>&\u2028 \xff \"q\""
	entries := []struct {
		typ  string
		body any
	}{
		{TypeManifest, Manifest{Campaign: odd, Seed: 1<<64 - 1, Jobs: 3, Workers: 2, CodeVersion: odd, SpecsDigest: "d"}},
		{TypeResult, Result{Index: 0, Kind: odd, Name: odd, Seed: 7, Status: "done", Digest: "d0"}},
		{TypeResult, Result{Index: 1, Kind: "k", Seed: 8, Status: "failed", Cached: true, Digest: "d1"}},
		{TypeSidecar, Sidecar{Name: "spans.jsonl", Bytes: 42, Digest: "d2"}},
		{TypeSidecar, json.RawMessage(` { "name" : "timeline.jsonl", "bytes": 1,"digest":"<d>" } `)},
		{TypeSummary, Summary{Done: 2, Failed: 1, ResultsDigest: "d3"}},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	prev := ""
	var want []string
	for i, e := range entries {
		if err := w.Append(e.typ, e.body); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(e.body)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(Entry{Seq: i, Type: e.typ, Prev: prev, Body: raw})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, string(line))
		prev = LineDigest(line)
	}
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

func TestSpecsDigestCanonical(t *testing.T) {
	a, err := SpecsDigest([]byte(`[{"kind":"k","params":{"a":1,"b":2}}]`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpecsDigest([]byte("[ {\"params\": {\"b\":2, \"a\":1},\n   \"kind\": \"k\"} ]"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("reformatted specs produced a different digest")
	}
}

// TestSpecsDigestFixture pins the specs digest of a job array with
// unsorted and duplicate keys, HTML characters, U+2028, an unpaired
// surrogate escape and invalid UTF-8 to its known hex value. The
// digest is recorded in every ledger, so a change here makes existing
// run directories fail pcs verify.
func TestSpecsDigestFixture(t *testing.T) {
	specs := `[{"kind":"minvdd","name":"l1<a>&` + "\u2028" + `","params":{"ways":4,"size_bytes":65536,"block_bytes":64}},` +
		`{"kind":"k","params":{"b":[1,0.10,{"y":null,"x":"é\ud800"}],"a":"<&>","a":true}},` +
		`{"kind":"k","name":"bad ` + "\xff" + ` utf8","params":null}]`
	got, err := SpecsDigest(json.RawMessage(specs))
	if err != nil {
		t.Fatal(err)
	}
	if want := "fd0ffe482493340c89ff452fc256edcc1ff55e154a6da207220537b8f46a0c2a"; got != want {
		t.Errorf("specs digest = %s, want %s", got, want)
	}
}

// TestCanonicalSpecsDigest checks CanonicalSpecsDigest over the
// canonical elements of a spec array equals SpecsDigest of the array:
// the fixture's, and an empty one.
func TestCanonicalSpecsDigest(t *testing.T) {
	specs := `[{"kind":"minvdd","name":"l1<a>&` + "\u2028" + `","params":{"ways":4,"size_bytes":65536}},` +
		`{"params":null,"kind":"k"},{"kind":"k","name":"bad ` + "\xff" + `"}]`
	for _, raw := range []string{specs, `[]`} {
		var elems []json.RawMessage
		if err := json.Unmarshal([]byte(raw), &elems); err != nil {
			t.Fatal(err)
		}
		objs := make([][]byte, len(elems))
		for i, e := range elems {
			var err error
			if objs[i], err = resultstore.CanonicalJSON(e); err != nil {
				t.Fatal(err)
			}
		}
		want, err := SpecsDigest(json.RawMessage(raw))
		if err != nil {
			t.Fatal(err)
		}
		if got := CanonicalSpecsDigest(objs); got != want {
			t.Errorf("%s: digest %s, want %s", raw, got, want)
		}
	}
}

// writeRunDir fabricates a minimal verifiable run directory: two done
// jobs, matching manifest.json/results.jsonl/summary.json/ledger.jsonl.
func writeRunDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()

	specs := json.RawMessage(`[{"kind":"k","name":"j0","params":{"x":1}},{"kind":"k","name":"j1","params":{"x":2}}]`)
	results := [][]byte{
		[]byte(`{"index":0,"kind":"k","name":"j0","seed":11,"status":"done","output":{"v":1}}`),
		[]byte(`{"index":1,"kind":"k","name":"j1","seed":22,"status":"done","output":{"v":2}}`),
	}
	var rbuf bytes.Buffer
	for _, l := range results {
		rbuf.Write(l)
		rbuf.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "results.jsonl"), rbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	mf := fmt.Sprintf(`{
  "campaign": "c",
  "seed": 7,
  "jobs": 2,
  "workers": 1,
  "created": "2026-01-01T00:00:00Z",
  "specs": %s
}`, specs)
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(mf), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "summary.json"), []byte(`{"done":2,"failed":0,"cancelled":0}`), 0o644); err != nil {
		t.Fatal(err)
	}

	sd, err := SpecsDigest(specs)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(rbuf.Bytes())
	lf, err := os.Create(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(lf)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.Append(TypeManifest, Manifest{Campaign: "c", Seed: 7, Jobs: 2, Workers: 1, CodeVersion: "test", SpecsDigest: sd}))
	must(w.Append(TypeResult, Result{Index: 0, Kind: "k", Name: "j0", Seed: 11, Status: "done", Digest: LineDigest(results[0])}))
	must(w.Append(TypeResult, Result{Index: 1, Kind: "k", Name: "j1", Seed: 22, Status: "done", Cached: true, Digest: LineDigest(results[1])}))
	must(w.Append(TypeSummary, Summary{Done: 2, ResultsDigest: hex.EncodeToString(sum[:])}))
	must(lf.Close())
	return dir
}

func TestVerifyDir(t *testing.T) {
	dir := writeRunDir(t)
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir on intact run: %v", err)
	}
	if rep.Manifest.Campaign != "c" || len(rep.Results) != 2 || rep.Summary.Done != 2 {
		t.Errorf("report: %+v", rep)
	}
	if rep.Cached != 1 {
		t.Errorf("cached count: got %d want 1", rep.Cached)
	}
}

func TestVerifyDirDetectsCorruptResults(t *testing.T) {
	dir := writeRunDir(t)
	p := filepath.Join(dir, "results.jsonl")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the first output value: "v":1 -> "v":9.
	i := bytes.Index(data, []byte(`{"v":1}`))
	if i < 0 {
		t.Fatal("marker not found")
	}
	data[i+5] = '9'
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); err == nil {
		t.Error("corrupted results.jsonl byte: want verification failure")
	}
}

func TestVerifyDirDetectsEditedLedger(t *testing.T) {
	dir := writeRunDir(t)
	p := filepath.Join(dir, FileName)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(data, []byte(`"seed":11`), []byte(`"seed":12`), 1)
	if bytes.Equal(edited, data) {
		t.Fatal("marker not found")
	}
	if err := os.WriteFile(p, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); err == nil {
		t.Error("edited ledger entry: want verification failure")
	}
}

func TestVerifyDirDetectsManifestSwap(t *testing.T) {
	dir := writeRunDir(t)
	p := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(data, []byte(`"x":1`), []byte(`"x":3`), 1)
	if bytes.Equal(edited, data) {
		t.Fatal("marker not found")
	}
	if err := os.WriteFile(p, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); err == nil {
		t.Error("edited manifest specs: want verification failure")
	}
}

func TestVerifyDirDetectsTruncatedLedger(t *testing.T) {
	dir := writeRunDir(t)
	p := filepath.Join(dir, FileName)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	truncated := append(bytes.Join(lines[:len(lines)-1], []byte("\n")), '\n')
	if err := os.WriteFile(p, truncated, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); err == nil {
		t.Error("truncated ledger (summary dropped): want verification failure")
	}
}
