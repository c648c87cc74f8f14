package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

// drawSumKind is a stochastic kind: it sums n draws from an RNG built
// from the job seed, so its output depends on correct per-job seeding.
func drawSumKind(_ context.Context, seed uint64, params json.RawMessage) (any, error) {
	var p struct {
		Draws int `json:"draws"`
	}
	if err := json.Unmarshal(params, &p); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	var sum uint64
	for i := 0; i < p.Draws; i++ {
		sum += rng.Uint64() >> 32
	}
	return map[string]uint64{"sum": sum}, nil
}

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	reg.MustRegister("drawsum", drawSumKind)
	reg.MustRegister("boom", func(_ context.Context, _ uint64, _ json.RawMessage) (any, error) {
		panic("kind exploded")
	})
	reg.MustRegister("fail", func(_ context.Context, _ uint64, _ json.RawMessage) (any, error) {
		return nil, errors.New("deliberate failure")
	})
	reg.MustRegister("block", func(ctx context.Context, _ uint64, _ json.RawMessage) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	return reg
}

func drawSumCampaign(n int) Campaign {
	c := Campaign{Name: "det", Seed: 42}
	for i := 0; i < n; i++ {
		c.Jobs = append(c.Jobs, Spec{
			Kind:   "drawsum",
			Name:   fmt.Sprintf("job-%d", i),
			Params: json.RawMessage(`{"draws": 1000}`),
		})
	}
	return c
}

// TestParallelSerialIdentical is the determinism contract: a fixed-seed
// campaign run with 8 workers must produce byte-identical result
// records to a 1-worker run.
func TestParallelSerialIdentical(t *testing.T) {
	reg := testRegistry(t)
	read := func(workers int) []byte {
		dir := filepath.Join(t.TempDir(), "run")
		_, err := Run(context.Background(), reg, drawSumCampaign(50), Options{
			Workers: workers, ArtifactDir: dir,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := read(1)
	parallel := read(8)
	if string(serial) != string(parallel) {
		t.Fatalf("8-worker results.jsonl differs from 1-worker run:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	if lines := strings.Count(string(serial), "\n"); lines != 50 {
		t.Fatalf("results.jsonl has %d lines, want 50", lines)
	}
}

// TestJobSeedsIndependent checks derived seeds differ per index and per
// campaign seed.
func TestJobSeedsIndependent(t *testing.T) {
	seen := make(map[uint64]bool)
	for campaign := uint64(0); campaign < 10; campaign++ {
		for i := 0; i < 100; i++ {
			s := JobSeed(campaign, i)
			if seen[s] {
				t.Fatalf("duplicate derived seed %d (campaign %d, job %d)", s, campaign, i)
			}
			seen[s] = true
		}
	}
	if JobSeed(7, 3) != JobSeed(7, 3) {
		t.Fatal("JobSeed is not a pure function")
	}
}

// TestPanicIsolation checks a panicking job is marked failed while the
// rest of the campaign completes.
func TestPanicIsolation(t *testing.T) {
	reg := testRegistry(t)
	c := drawSumCampaign(6)
	c.Jobs[3] = Spec{Kind: "boom", Name: "the-bad-one"}
	res, err := Run(context.Background(), reg, c, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 5 || res.Failed != 1 {
		t.Fatalf("done=%d failed=%d, want 5/1", res.Done, res.Failed)
	}
	bad := res.Results[3]
	if bad.Status != StatusFailed {
		t.Fatalf("job 3 status %q, want failed", bad.Status)
	}
	if !strings.Contains(bad.Error, "kind exploded") {
		t.Fatalf("job 3 error %q does not mention the panic", bad.Error)
	}
	for i, r := range res.Results {
		if i != 3 && r.Status != StatusDone {
			t.Fatalf("job %d status %q, want done", i, r.Status)
		}
	}
}

// TestErrorDoesNotAbortCampaign checks ordinary job errors behave like
// panics: recorded, not fatal.
func TestErrorDoesNotAbortCampaign(t *testing.T) {
	reg := testRegistry(t)
	c := drawSumCampaign(4)
	c.Jobs[0] = Spec{Kind: "fail"}
	res, err := Run(context.Background(), reg, c, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Done != 3 {
		t.Fatalf("done=%d failed=%d, want 3/1", res.Done, res.Failed)
	}
	if res.Results[0].Error != "deliberate failure" {
		t.Fatalf("error = %q", res.Results[0].Error)
	}
}

// TestCancellation checks a cancelled campaign stops promptly: blocked
// jobs unblock with cancelled status and the undispatched tail is marked
// cancelled without running.
func TestCancellation(t *testing.T) {
	reg := testRegistry(t)
	c := Campaign{Name: "cancel", Seed: 1}
	for i := 0; i < 10; i++ {
		c.Jobs = append(c.Jobs, Spec{Kind: "block"})
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	res, err := Run(ctx, reg, c, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
	if res.Cancelled == 0 {
		t.Fatal("no jobs marked cancelled")
	}
	for i, r := range res.Results {
		if r.Status != StatusCancelled {
			t.Fatalf("job %d status %q, want cancelled", i, r.Status)
		}
	}
}

// TestProgressReporting checks OnProgress sees monotone completion and a
// final snapshot covering every job.
func TestProgressReporting(t *testing.T) {
	reg := testRegistry(t)
	var mu sync.Mutex
	var last Progress
	calls := 0
	res, err := Run(context.Background(), reg, drawSumCampaign(20), Options{
		Workers: 4,
		OnProgress: func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			if p.Completed() < last.Completed() {
				t.Errorf("completion went backwards: %d -> %d", last.Completed(), p.Completed())
			}
			last = p
			calls++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 20 {
		t.Fatalf("OnProgress called %d times, want 20", calls)
	}
	if last.Done != 20 || last.Total != 20 || last.Running != 0 {
		t.Fatalf("final progress %+v", last)
	}
	if res.Elapsed <= 0 {
		t.Fatal("campaign elapsed not recorded")
	}
}

// TestUnknownKindFailsFast checks validation happens before any job runs.
func TestUnknownKindFailsFast(t *testing.T) {
	reg := testRegistry(t)
	c := drawSumCampaign(3)
	c.Jobs[2].Kind = "typo"
	if _, err := Run(context.Background(), reg, c, Options{}); err == nil ||
		!strings.Contains(err.Error(), "typo") {
		t.Fatalf("err = %v, want unknown-kind error naming the kind", err)
	}
	if _, err := Run(context.Background(), reg, Campaign{Name: "empty"}, Options{}); err == nil {
		t.Fatal("empty campaign did not error")
	}
}

// TestArtifactLayout checks the run directory holds manifest, records
// and summary with consistent contents.
func TestArtifactLayout(t *testing.T) {
	reg := testRegistry(t)
	root := t.TempDir()
	dir, err := NewRunDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), reg, drawSumCampaign(5), Options{Workers: 2, ArtifactDir: dir}); err != nil {
		t.Fatal(err)
	}
	var man struct {
		Campaign string `json:"campaign"`
		Jobs     int    `json:"jobs"`
		Seed     uint64 `json:"seed"`
	}
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	if man.Campaign != "det" || man.Jobs != 5 || man.Seed != 42 {
		t.Fatalf("manifest %+v", man)
	}
	b, err = os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d result lines, want 5", len(lines))
	}
	for i, line := range lines {
		var rec JobResult
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.Index != i {
			t.Fatalf("line %d has index %d: records not in job order", i, rec.Index)
		}
		if rec.Seed != JobSeed(42, i) {
			t.Fatalf("line %d seed %d != derived %d", i, rec.Seed, JobSeed(42, i))
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got, want := strings.Join(names, " "), "ledger.jsonl manifest.json results.jsonl spans.jsonl summary.json"; got != want {
		t.Fatalf("run directory holds %s, want %s", got, want)
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("", drawSumKind); err == nil {
		t.Fatal("empty kind accepted")
	}
	if err := reg.Register("x", nil); err == nil {
		t.Fatal("nil func accepted")
	}
	if err := reg.Register("x", drawSumKind); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("x", drawSumKind); err == nil {
		t.Fatal("duplicate kind accepted")
	}
	if kinds := reg.Kinds(); len(kinds) != 1 || kinds[0] != "x" {
		t.Fatalf("kinds = %v", kinds)
	}
}
