package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/obs/tracez"
	"repro/internal/resultstore"
)

// TestTracingDoesNotChangeResults extends the determinism contract to
// span recording: an 8-worker run with a run directory, which records
// spans, must write results.jsonl byte-identical to the records of a
// 1-worker run with no directory and no sink (a nil tracer), marshalled
// the same way. Spans and resource attribution live only in
// spans.jsonl, never in the result records.
func TestTracingDoesNotChangeResults(t *testing.T) {
	reg := testRegistry(t)
	dir := filepath.Join(t.TempDir(), "run")
	if _, err := Run(context.Background(), reg, drawSumCampaign(30), Options{Workers: 8, ArtifactDir: dir}); err != nil {
		t.Fatal(err)
	}
	traced, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), reg, drawSumCampaign(30), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var plain []byte
	for i := range res.Results {
		line, err := json.Marshal(&res.Results[i])
		if err != nil {
			t.Fatal(err)
		}
		plain = append(append(plain, line...), '\n')
	}
	if string(plain) != string(traced) {
		t.Fatalf("traced results.jsonl differs from untraced run:\nuntraced:\n%s\ntraced:\n%s", plain, traced)
	}
}

// TestSpansReconcileWithTimeline runs a campaign with a run directory
// and a live sink and checks the views agree: spans.jsonl holds one
// campaign root and exactly one job span per job, whose attributes
// equal the in-memory resource block and whose duration covers the
// job's; the live sink got the same bytes plus the ledger.append span;
// and the ledger hash-chains spans.jsonl, its only sidecar, so
// tampering with it after the run is detected.
func TestSpansReconcileWithTimeline(t *testing.T) {
	reg := testRegistry(t)
	dir := filepath.Join(t.TempDir(), "run")
	const jobs = 12
	var live bytes.Buffer
	res, err := Run(context.Background(), reg, drawSumCampaign(jobs), Options{
		Workers: 4, ArtifactDir: dir, SpanSink: &live, CodeVersion: "v-trace",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != jobs {
		t.Fatalf("done=%d want %d", res.Done, jobs)
	}

	file, err := os.ReadFile(filepath.Join(dir, tracez.FileName))
	if err != nil {
		t.Fatal(err)
	}
	spans, err := tracez.ReadSpans(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	camp, jobSpans, attrs := campaignAndJobs(t, spans)
	if len(jobSpans) != jobs {
		t.Fatalf("got %d job spans, want %d", len(jobSpans), jobs)
	}
	for idx, sp := range jobSpans {
		if sp.Parent != camp.ID || sp.Trace != camp.Trace {
			t.Errorf("job %d span parent %q trace %q, want campaign %q in %q", idx, sp.Parent, sp.Trace, camp.ID, camp.Trace)
		}
		r := res.Results[idx]
		a := attrs[idx]
		if a.Status != string(r.Status) || a.Worker < 0 || a.Worker >= 4 {
			t.Errorf("job %d attrs %+v, result status %s", idx, a, r.Status)
		}
		if a.CPUMS != r.Resources.CPUMS || a.Allocs != r.Resources.Allocs || a.AllocBytes != r.Resources.AllocBytes ||
			a.Cache != "" || a.Transitions != r.Resources.Transitions || a.Writebacks != r.Resources.Writebacks {
			t.Errorf("job %d attrs %+v do not reconcile with resources %+v", idx, a, *r.Resources)
		}
		if sp.DurNS < int64(r.Duration) {
			t.Errorf("job %d span lasts %d ns, less than the job's %d", idx, sp.DurNS, r.Duration)
		}
	}
	var ca struct{ Done int }
	decodeAttrs(t, camp, &ca)
	if ca.Done != jobs {
		t.Errorf("campaign span done=%d want %d", ca.Done, jobs)
	}

	// One encoding feeds both: the live stream is spans.jsonl followed
	// by the span of the ledger append, which happens after the file
	// is sealed.
	rest, ok := bytes.CutPrefix(live.Bytes(), file)
	if !ok {
		t.Fatalf("live stream does not start with spans.jsonl:\n%s", live.Bytes())
	}
	if tail, err := tracez.ReadSpans(bytes.NewReader(rest)); err != nil || len(tail) != 1 || tail[0].Name != "ledger.append" {
		t.Fatalf("live stream after spans.jsonl: %s (err %v)", rest, err)
	}

	// The manifest names the one sidecar and the ledger chains it.
	mb, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Sidecars []string `json:"sidecars"`
	}
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Sidecars) != 1 || m.Sidecars[0] != tracez.FileName {
		t.Fatalf("manifest sidecars %v, want [%s]", m.Sidecars, tracez.FileName)
	}
	rep, err := ledger.VerifyDir(dir)
	if err != nil {
		t.Fatalf("run's ledger does not verify: %v", err)
	}
	if len(rep.Sidecars) != 1 {
		t.Fatalf("ledger has %d sidecar entries, want 1: %+v", len(rep.Sidecars), rep.Sidecars)
	}
	if sc := rep.Sidecars[0]; sc.Name != tracez.FileName || sc.Bytes != int64(len(file)) || len(sc.Digest) != 64 {
		t.Errorf("sidecar entry %+v", sc)
	}

	// Tampering with the span sidecar after the run breaks verification.
	f, err := os.OpenFile(filepath.Join(dir, tracez.FileName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"name\":\"forged\"}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := ledger.VerifyDir(dir); err == nil {
		t.Fatal("VerifyDir accepted a tampered spans.jsonl")
	} else if !strings.Contains(err.Error(), tracez.FileName) {
		t.Fatalf("tamper error does not name the sidecar: %v", err)
	}
}

// TestJobResourcesPopulated checks the in-memory results carry the
// attribution block even without an artifact directory, and that cache
// provenance flows into it and onto the job spans a live sink receives:
// a cold run misses and stores every output, a second run against the
// warm store hits.
func TestJobResourcesPopulated(t *testing.T) {
	var execs atomic.Int64
	reg := cacheTestRegistry(t, &execs)
	store, err := resultstore.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*CampaignResult, map[int]jobAttrs) {
		var live bytes.Buffer
		res, err := Run(context.Background(), reg, countedCampaign("counted", 6), Options{
			Workers: 3, Cache: store, CodeVersion: "v-res", SpanSink: &live,
		})
		if err != nil {
			t.Fatal(err)
		}
		spans, err := tracez.ReadSpans(&live)
		if err != nil {
			t.Fatal(err)
		}
		_, _, attrs := campaignAndJobs(t, spans)
		return res, attrs
	}

	res1, attrs1 := run()
	for _, r := range res1.Results {
		if r.Resources == nil {
			t.Fatalf("job %d has no resources", r.Index)
		}
		if r.Duration < 0 || r.Resources.CPUMS < 0 {
			t.Fatalf("job %d negative times: %s %+v", r.Index, r.Duration, r.Resources)
		}
		if r.Resources.CacheHit || !r.Resources.CacheMiss {
			t.Fatalf("cold run job %d: hit=%v miss=%v", r.Index, r.Resources.CacheHit, r.Resources.CacheMiss)
		}
		if a := attrs1[r.Index]; a.Cache != "miss" || a.StoredBytes <= 0 {
			t.Fatalf("cold run job %d span attrs %+v, want a miss that stored bytes", r.Index, a)
		}
	}

	res2, attrs2 := run()
	if res2.Cached != 6 {
		t.Fatalf("warm run cached %d of 6", res2.Cached)
	}
	for _, r := range res2.Results {
		if !r.Resources.CacheHit || r.Resources.CacheMiss {
			t.Fatalf("warm run job %d: hit=%v miss=%v", r.Index, r.Resources.CacheHit, r.Resources.CacheMiss)
		}
		if a := attrs2[r.Index]; a.Cache != "hit" || a.StoredBytes != 0 {
			t.Fatalf("warm run job %d span attrs %+v, want a hit that stored nothing", r.Index, a)
		}
	}
}

// TestCancelledTracedRunFlushesSpans extends the cancelled-run
// guarantee to the span sidecar: after cancellation, spans.jsonl holds
// only whole JSON lines, the cancelled jobs' spans say so, and the
// ledger (including the sidecar) still verifies.
func TestCancelledTracedRunFlushesSpans(t *testing.T) {
	reg := testRegistry(t)
	dir := filepath.Join(t.TempDir(), "run")
	c := Campaign{Name: "cancel-traced", Seed: 5}
	for i := 0; i < 8; i++ {
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
	if len(rep.Sidecars) != 1 {
		t.Fatalf("ledger has %d sidecars, want 1", len(rep.Sidecars))
	}
	spans, err := tracez.ReadFile(filepath.Join(dir, tracez.FileName))
	if err != nil {
		t.Fatalf("cancelled run's spans.jsonl is torn: %v", err)
	}
	camp, _, attrs := campaignAndJobs(t, spans)
	var ca struct{ Cancelled int }
	decodeAttrs(t, camp, &ca)
	if ca.Cancelled != res.Cancelled {
		t.Errorf("campaign span cancelled=%d, run reported %d", ca.Cancelled, res.Cancelled)
	}
	for i, a := range attrs {
		if a.Status != string(StatusCancelled) {
			t.Errorf("job %d span status %q, want cancelled", i, a.Status)
		}
	}
}

// TestJobSpanAllocs pins what a campaign pays per job for its record:
// opening a job span, setting its full attribute set and writing it to
// a spans.jsonl sink allocates at most 4 times (the span, its ID, its
// context and its attribute buffer). scripts/check.sh runs this gate.
func TestJobSpanAllocs(t *testing.T) {
	sink, err := tracez.CreateJSONL(filepath.Join(t.TempDir(), tracez.FileName))
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	ctx := tracez.ContextWith(context.Background(), tracez.New(sink))
	spec := Spec{Kind: "fig4-cell", Name: "B/libquantum.s/DPCS"}
	r := JobResult{Index: 397, Kind: spec.Kind, Name: spec.Name, Status: StatusFailed,
		Error: "cpusim: run cancelled", Resources: &JobResources{CPUMS: 1234.567, Allocs: 123456,
			AllocBytes: 98765432, CacheMiss: true, Transitions: 271, Writebacks: 1234567}}
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := startJobSpan(ctx, r.Index, 7, spec, 0xfedcba9876543210)
		endJobSpan(sp, &r, 4096)
	})
	if allocs > 4 {
		t.Fatalf("recording a job span allocates %.1f times, want <= 4", allocs)
	}
}
