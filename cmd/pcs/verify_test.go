package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/expers"
	"repro/internal/ledger"
	"repro/internal/runner"
	"repro/internal/version"
)

// runVerify runs `pcs verify args...` in process and returns its exit
// code, stdout and stderr.
func runVerify(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	app := &cli.App{Name: "pcs", Output: &stderr}
	app.Register(verifyCommand(&stdout, &stderr))
	code := app.Run(append([]string{"verify"}, args...))
	return code, stdout.String(), stderr.String()
}

// manifestSpecsDigest recomputes the specs digest from a run
// directory's manifest.json, as a reader of the directory would.
func manifestSpecsDigest(t *testing.T, dir string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Specs json.RawMessage `json:"specs"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	d, err := ledger.SpecsDigest(m.Specs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestVerifyRunDir writes a run directory with the campaign runner and
// checks `pcs verify` accepts it, printing the specs digest manifest.json
// implies, and rejects it, naming the specs digest, once a spec's params
// are edited.
func TestVerifyRunDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	c := runner.Campaign{Name: "verify", Seed: 1, Jobs: []runner.Spec{
		{Kind: "minvdd", Name: "l1<a>", Params: json.RawMessage(`{"size_bytes":65536,"ways":4,"block_bytes":64}`)},
		{Kind: "minvdd", Params: json.RawMessage(`{"block_bytes":64, "ways":8, "size_bytes":2097152}`)},
	}}
	opts := runner.Options{Workers: 2, ArtifactDir: dir, CodeVersion: version.String()}
	if _, err := runner.Run(context.Background(), expers.NewCampaignRegistry(), c, opts); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := runVerify("-recompute", "2", dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if want := "  specs digest " + manifestSpecsDigest(t, dir) + "\n"; !strings.Contains(stdout, want) {
		t.Errorf("stdout lacks %q:\n%s", want, stdout)
	}
	if !strings.Contains(stdout, "2/2 done cells recomputed bit-identically") {
		t.Errorf("stdout lacks the recomputation summary:\n%s", stdout)
	}

	path := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(raw, []byte(`"size_bytes":2097152`), []byte(`"size_bytes":1048576`), 1)
	if bytes.Equal(edited, raw) {
		t.Fatalf("manifest.json has no spec to edit:\n%s", raw)
	}
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr = runVerify(dir)
	if code != 1 {
		t.Errorf("edited manifest: exit %d, want 1", code)
	}
	if stdout != "" {
		t.Errorf("edited manifest: printed a report:\n%s", stdout)
	}
	if !strings.Contains(stderr, "specs digest") {
		t.Errorf("edited manifest: stderr %q does not name the specs digest", stderr)
	}
}

// TestVerifyCodeVersionWarning checks `pcs verify -recompute` warns on
// stderr, and only there, when the run was produced by another code
// version, and still verifies the run.
func TestVerifyCodeVersionWarning(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	c := runner.Campaign{Name: "other", Seed: 1, Jobs: []runner.Spec{
		{Kind: "minvdd", Params: json.RawMessage(`{"size_bytes":65536,"ways":4,"block_bytes":64}`)},
	}}
	if _, err := runner.Run(context.Background(), expers.NewCampaignRegistry(), c, runner.Options{Workers: 1, ArtifactDir: dir, CodeVersion: "other"}); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runVerify("-recompute", "1", dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	const warning = "pcs verify: warning: run was produced by code version other"
	if !strings.Contains(stderr, warning) {
		t.Errorf("stderr %q lacks the code-version warning", stderr)
	}
	if strings.Contains(stdout, "warning") || !strings.Contains(stdout, "1/1 done cells recomputed bit-identically") {
		t.Errorf("stdout:\n%s", stdout)
	}
}

// TestVerifyOldRunDir checks `pcs verify` still accepts a run
// directory recorded before job spans, whose ledger also chains a
// timeline.jsonl sidecar, and refuses it, naming the file, once that
// sidecar is edited: the ledger treats every sidecar name alike.
func TestVerifyOldRunDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	c := runner.Campaign{Name: "old", Seed: 1, Jobs: []runner.Spec{
		{Kind: "minvdd", Params: json.RawMessage(`{"size_bytes":65536,"ways":4,"block_bytes":64}`)},
	}}
	if _, err := runner.Run(context.Background(), expers.NewCampaignRegistry(), c, runner.Options{Workers: 1, ArtifactDir: dir}); err != nil {
		t.Fatal(err)
	}
	timeline := []byte(`{"type":"campaign_started","campaign":"old","index":-1,"elapsed_ms":0}` + "\n")
	if err := os.WriteFile(filepath.Join(dir, "timeline.jsonl"), timeline, 0o644); err != nil {
		t.Fatal(err)
	}
	// Re-chain the ledger with the timeline.jsonl entry an older run
	// wrote before its spans.jsonl entry.
	path := filepath.Join(dir, ledger.FileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := ledger.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	lw := ledger.NewWriter(&buf)
	for _, e := range entries {
		if e.Type == ledger.TypeSidecar {
			sum := sha256.Sum256(timeline)
			if err := lw.Append(ledger.TypeSidecar, ledger.Sidecar{Name: "timeline.jsonl",
				Bytes: int64(len(timeline)), Digest: hex.EncodeToString(sum[:])}); err != nil {
				t.Fatal(err)
			}
		}
		if err := lw.Append(e.Type, e.Body); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := runVerify(dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"sidecar timeline.jsonl:", "sidecar spans.jsonl:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "timeline.jsonl"), append(timeline, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runVerify(dir); code != 1 || !strings.Contains(stderr, "timeline.jsonl") {
		t.Errorf("edited timeline.jsonl: exit %d, stderr %q", code, stderr)
	}
}
