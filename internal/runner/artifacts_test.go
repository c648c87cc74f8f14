package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/obs/tracez"
)

// TestNewRunDirSuffixing checks colliding timestamps get numeric
// suffixes instead of reusing (or clobbering) an existing run
// directory. Three directories created back-to-back within one second
// must all be distinct children of root.
func TestNewRunDirSuffixing(t *testing.T) {
	root := t.TempDir()
	seen := make(map[string]bool)
	for i := 0; i < 3; i++ {
		dir, err := NewRunDir(root)
		if err != nil {
			t.Fatal(err)
		}
		if seen[dir] {
			t.Fatalf("NewRunDir reused %s", dir)
		}
		seen[dir] = true
		if filepath.Dir(dir) != root {
			t.Fatalf("run dir %s not under root %s", dir, root)
		}
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			t.Fatalf("run dir %s: stat %v", dir, err)
		}
	}
	// With sub-second creation at least one collision occurred, so at
	// least one name must carry the -N suffix.
	var suffixed bool
	for dir := range seen {
		if strings.Contains(filepath.Base(dir), "-") {
			suffixed = true
		}
	}
	if !suffixed {
		t.Skip("directories landed in distinct seconds; no collision to exercise")
	}
}

// TestFailedSetupWritesNoManifest checks a campaign whose manifest
// cannot be encoded (a job's params are blank, not JSON) fails Run and
// leaves no manifest.json behind, rather than an empty one.
func TestFailedSetupWritesNoManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	c := Campaign{Name: "blank", Seed: 1, Jobs: []Spec{{Kind: "drawsum", Name: "j", Params: json.RawMessage("  ")}}}
	_, err := Run(context.Background(), testRegistry(t), c, Options{Workers: 1, ArtifactDir: dir})
	if err == nil || !strings.Contains(err.Error(), "encode manifest.json") {
		t.Fatalf("Run error = %v, want the manifest encoding failure", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("manifest.json after a failed set-up: stat error %v, want not-exist", err)
	}
}

// TestManifestRoundTrip checks manifest.json records the campaign
// verbatim: the specs array decodes back to the jobs that ran, and the
// ledger's manifest entry agrees with the sidecar.
func TestManifestRoundTrip(t *testing.T) {
	reg := testRegistry(t)
	dir := filepath.Join(t.TempDir(), "run")
	c := drawSumCampaign(4)
	if _, err := Run(context.Background(), reg, c, Options{Workers: 2, ArtifactDir: dir, CodeVersion: "v-rt"}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Campaign string    `json:"campaign"`
		Seed     uint64    `json:"seed"`
		Jobs     int       `json:"jobs"`
		Workers  int       `json:"workers"`
		Created  time.Time `json:"created"`
		Specs    []Spec    `json:"specs"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m.Campaign != c.Name || m.Seed != c.Seed || m.Jobs != len(c.Jobs) || m.Workers != 2 {
		t.Fatalf("manifest header %+v", m)
	}
	if m.Created.IsZero() {
		t.Error("manifest created time is zero")
	}
	// The manifest is written indented, which reformats the embedded raw
	// params; the round-trip guarantee is semantic, so compare compacted.
	compact := func(raw json.RawMessage) string {
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if len(m.Specs) != len(c.Jobs) {
		t.Fatalf("manifest has %d specs, want %d", len(m.Specs), len(c.Jobs))
	}
	for i := range c.Jobs {
		got, want := m.Specs[i], c.Jobs[i]
		if got.Kind != want.Kind || got.Name != want.Name || compact(got.Params) != compact(want.Params) {
			t.Fatalf("spec %d does not round-trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
	// The hash chain closes over the same identity.
	rep, err := ledger.VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Manifest.CodeVersion != "v-rt" || rep.Manifest.Seed != c.Seed {
		t.Fatalf("ledger manifest %+v", rep.Manifest)
	}
}

// TestCancelledRunClosesArtifacts checks a cancelled campaign still
// leaves a parseable spans.jsonl and a closed, verifiable ledger chain:
// the summary entry must be present (truncation would otherwise be
// indistinguishable from a crash) and record the cancelled counts.
func TestCancelledRunClosesArtifacts(t *testing.T) {
	reg := testRegistry(t)
	dir := filepath.Join(t.TempDir(), "run")
	c := Campaign{Name: "cancel", Seed: 3}
	for i := 0; i < 6; i++ {
		c.Jobs = append(c.Jobs, Spec{Kind: "block"})
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	res, err := Run(ctx, reg, c, Options{Workers: 2, ArtifactDir: dir})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Cancelled == 0 {
		t.Fatal("no jobs cancelled")
	}

	rep, err := ledger.VerifyDir(dir)
	if err != nil {
		t.Fatalf("cancelled run's ledger does not verify: %v", err)
	}
	if rep.Summary.Cancelled != res.Cancelled || rep.Summary.Done != res.Done {
		t.Fatalf("ledger summary %+v, campaign counts done=%d cancelled=%d",
			rep.Summary, res.Done, res.Cancelled)
	}

	// Every spans.jsonl line must be a whole JSON document (no torn
	// write from the cancelled workers), and each job that ran has its
	// span.
	b, err := os.ReadFile(filepath.Join(dir, tracez.FileName))
	if err != nil {
		t.Fatal(err)
	}
	jobSpans := 0
	for i, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var sp tracez.Span
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("spans.jsonl line %d: %v", i, err)
		}
		if sp.Name == "job" {
			jobSpans++
		}
	}
	if jobSpans == 0 || jobSpans > len(c.Jobs) {
		t.Fatalf("%d job spans for %d jobs", jobSpans, len(c.Jobs))
	}
}
