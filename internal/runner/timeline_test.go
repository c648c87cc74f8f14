package runner

import (
	"context"
	"encoding/json"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/tracez"
)

// jobAttrs is a job span's attribute set, as endJobSpan writes it.
type jobAttrs struct {
	Job         int     `json:"job"`
	Kind        string  `json:"kind"`
	Name        string  `json:"name"`
	Seed        uint64  `json:"seed"`
	Worker      int     `json:"worker"`
	Status      string  `json:"status"`
	Error       string  `json:"error"`
	CPUMS       float64 `json:"cpu_ms"`
	Allocs      uint64  `json:"allocs"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	Cache       string  `json:"cache"`
	StoredBytes int     `json:"stored_bytes"`
	Transitions int     `json:"transitions"`
	Writebacks  uint64  `json:"writebacks"`
}

// decodeAttrs decodes a span's attribute object into v.
func decodeAttrs(t *testing.T, sp tracez.Span, v any) {
	t.Helper()
	if err := json.Unmarshal(sp.Attrs, v); err != nil {
		t.Fatalf("span %s %s attrs %s: %v", sp.ID, sp.Name, sp.Attrs, err)
	}
}

// campaignAndJobs splits a run's spans into its one campaign span and
// its job spans keyed by job index, failing on a missing campaign span
// or a duplicate of either.
func campaignAndJobs(t *testing.T, spans []tracez.Span) (tracez.Span, map[int]tracez.Span, map[int]jobAttrs) {
	t.Helper()
	var camp *tracez.Span
	jobs := make(map[int]tracez.Span)
	attrs := make(map[int]jobAttrs)
	for i, sp := range spans {
		if sp.Trace == "" || sp.ID == "" {
			t.Fatalf("span %d missing identity: %+v", i, sp)
		}
		switch sp.Name {
		case "campaign":
			if camp != nil {
				t.Fatal("more than one campaign span")
			}
			camp = &spans[i]
		case "job":
			var a jobAttrs
			decodeAttrs(t, sp, &a)
			if _, dup := jobs[a.Job]; dup {
				t.Fatalf("duplicate job span for index %d", a.Job)
			}
			jobs[a.Job], attrs[a.Job] = sp, a
		}
	}
	if camp == nil {
		t.Fatal("no campaign span recorded")
	}
	return *camp, jobs, attrs
}

// TestTimelineArtifact checks spans.jsonl is the run's job timeline: a
// campaign span with the terminal counts, and one job span per job
// inside it in time, carrying the job's identity and terminal status.
func TestTimelineArtifact(t *testing.T) {
	reg := testRegistry(t)
	dir := filepath.Join(t.TempDir(), "run")
	c := drawSumCampaign(6)
	c.Jobs[2] = Spec{Kind: "fail", Name: "bad"}
	if _, err := Run(context.Background(), reg, c, Options{Workers: 3, ArtifactDir: dir}); err != nil {
		t.Fatal(err)
	}
	spans, err := tracez.ReadFile(filepath.Join(dir, tracez.FileName))
	if err != nil {
		t.Fatal(err)
	}
	camp, jobs, attrs := campaignAndJobs(t, spans)
	var ca struct {
		Campaign     string `json:"campaign"`
		Jobs         int    `json:"jobs"`
		Done, Failed int
	}
	decodeAttrs(t, camp, &ca)
	if camp.Parent != "" || ca.Campaign != "det" || ca.Jobs != 6 || ca.Done != 5 || ca.Failed != 1 {
		t.Fatalf("campaign span %+v, attrs %+v", camp, ca)
	}
	campEnd := camp.StartUnixNS + camp.DurNS
	for i := 0; i < 6; i++ {
		sp, ok := jobs[i]
		if !ok {
			t.Fatalf("job %d has no span", i)
		}
		a := attrs[i]
		want := string(StatusDone)
		if i == 2 {
			want = string(StatusFailed)
			if a.Error != "deliberate failure" {
				t.Errorf("failed job's error attr %q", a.Error)
			}
		}
		if a.Status != want || a.Kind != c.Jobs[i].Kind || a.Name != c.Jobs[i].Name || a.Seed != JobSeed(c.Seed, i) {
			t.Errorf("job %d attrs %+v, want status %s", i, a, want)
		}
		if sp.Parent != camp.ID || sp.StartUnixNS < camp.StartUnixNS || sp.StartUnixNS+sp.DurNS > campEnd {
			t.Errorf("job %d span %+v not inside campaign span %+v", i, sp, camp)
		}
	}
	if len(jobs) != 6 {
		t.Fatalf("%d job spans, want 6", len(jobs))
	}
}

// TestJobHooks checks OnJobStart fires per job and JobContext decorates
// the context the kind function receives.
func TestJobHooks(t *testing.T) {
	reg := testRegistry(t)
	type ctxKey struct{}
	reg.MustRegister("ctxcheck", func(ctx context.Context, _ uint64, _ json.RawMessage) (any, error) {
		return ctx.Value(ctxKey{}), nil
	})
	c := Campaign{Name: "hooks", Seed: 7}
	for i := 0; i < 4; i++ {
		c.Jobs = append(c.Jobs, Spec{Kind: "ctxcheck"})
	}
	var mu sync.Mutex
	startedIdx := map[int]bool{}
	res, err := Run(context.Background(), reg, c, Options{
		Workers: 2,
		OnJobStart: func(i int) {
			mu.Lock()
			startedIdx[i] = true
			mu.Unlock()
		},
		JobContext: func(ctx context.Context, i int, _ Spec) context.Context {
			return context.WithValue(ctx, ctxKey{}, i*10)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(startedIdx) != 4 {
		t.Fatalf("OnJobStart saw %d jobs, want 4", len(startedIdx))
	}
	for i, r := range res.Results {
		if got, ok := r.Output.(int); !ok || got != i*10 {
			t.Fatalf("job %d output %#v, want %d", i, r.Output, i*10)
		}
	}
}

// TestJobDurationRecorded checks Duration is populated in memory but
// never serialised (the determinism contract).
func TestJobDurationRecorded(t *testing.T) {
	reg := testRegistry(t)
	reg.MustRegister("sleep", func(ctx context.Context, _ uint64, _ json.RawMessage) (any, error) {
		time.Sleep(5 * time.Millisecond)
		return "ok", nil
	})
	c := Campaign{Name: "dur", Seed: 1, Jobs: []Spec{{Kind: "sleep"}}}
	res, err := Run(context.Background(), reg, c, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].Duration < 5*time.Millisecond {
		t.Fatalf("duration %s not recorded", res.Results[0].Duration)
	}
	b, err := json.Marshal(res.Results[0])
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for k := range m {
		if k == "duration" || k == "Duration" || k == "duration_ns" {
			t.Fatalf("duration leaked into serialised record: %s", b)
		}
	}
}
