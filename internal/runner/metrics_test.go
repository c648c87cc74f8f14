package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/resultstore"
)

// sizedCache is a ResultCache whose scrape-time size is fixed.
type sizedCache struct{ bytes int64 }

func (sizedCache) Get(string) ([]byte, bool, error) { return nil, false, nil }
func (sizedCache) Put(string, []byte) error         { return nil }
func (c sizedCache) ScrapeSizeBytes() int64         { return c.bytes }

// addCampaign files a fixed campaign record with the server, as
// handleSubmit and execute would have left it.
func addCampaign(s *Server, state string, workers int, p Progress, kinds []string, results ...*JobResult) {
	cs := &campaignState{state: state, workers: workers, progress: p,
		results: make([]*JobResult, len(kinds)), wake: make(chan struct{})}
	for _, k := range kinds {
		cs.campaign.Jobs = append(cs.campaign.Jobs, Spec{Kind: k})
	}
	for _, r := range results {
		cs.results[r.Index] = r
	}
	s.mu.Lock()
	s.nextID++
	cs.id = fmt.Sprintf("c%06d", s.nextID)
	s.campaigns[cs.id] = cs
	s.order = append(s.order, cs.id)
	s.mu.Unlock()
}

// job is one finished job record; cache is "hit", "miss" or "" (the
// store was not consulted).
func job(i int, kind string, status Status, d time.Duration, cache string) *JobResult {
	return &JobResult{Index: i, Kind: kind, Status: status, Duration: d,
		Resources: &JobResources{CacheHit: cache == "hit", CacheMiss: cache == "miss"}}
}

// TestMetricsExpositionGolden fills a server with fixed campaign
// records and compares the whole /metrics text with a golden: the
// families, their order, HELP/TYPE lines, label sets, bucket bounds
// and value formatting. The records cover three kinds (one never
// observed), every status, durations on bucket bounds and in the
// overflow bucket, every cache outcome, and one running campaign,
// whose rate makes pcs_jobs_per_second independent of the clock.
func TestMetricsExpositionGolden(t *testing.T) {
	s := NewServer(serverRegistry(t), fixtureExpand, ServerOptions{Cache: sizedCache{bytes: 4096}})
	defer s.Close()
	addCampaign(s, "done", 2, Progress{Total: 6, Done: 4, Failed: 1, Cancelled: 1, JobsPerSec: 40},
		[]string{"square", "square", "square", "square", "fail", "square"},
		job(0, "square", StatusDone, time.Millisecond, "miss"),
		job(1, "square", StatusDone, 4200*time.Microsecond, "hit"),
		job(2, "square", StatusDone, time.Second, "hit"),
		job(3, "square", StatusDone, 30*time.Second, ""),
		job(4, "fail", StatusFailed, 300*time.Second, "miss"),
		job(5, "square", StatusCancelled, 0, ""))
	addCampaign(s, "running", 4, Progress{Total: 5, Done: 1, Running: 2, JobsPerSec: 2.5},
		[]string{"square", "block", "block", "block", "block"},
		job(0, "square", StatusDone, 250*time.Millisecond, "miss"))
	addCampaign(s, "cancelled", 1, Progress{Total: 2, Done: 1, Cancelled: 1},
		[]string{"fail", "fail"},
		job(0, "fail", StatusDone, 400*time.Second, ""),
		job(1, "fail", StatusCancelled, 0, ""))

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Errorf("content type %q", ct)
	}
	got := rec.Body.String()
	if got != goldenExposition {
		t.Errorf("exposition differs from the golden:\n%s", got)
	}
	if err := ValidateExposition(strings.NewReader(got)); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}
}

// goldenExposition is the scrape of TestMetricsExpositionGolden's
// records. Two of their six done jobs never consulted the store, so
// they are neither hits nor misses.
const goldenExposition = `# HELP pcs_campaigns_total Campaigns submitted since server start.
# TYPE pcs_campaigns_total counter
pcs_campaigns_total 3
# HELP pcs_campaigns_running Campaigns currently executing.
# TYPE pcs_campaigns_running gauge
pcs_campaigns_running 1
# HELP pcs_jobs_queued Jobs waiting for a worker.
# TYPE pcs_jobs_queued gauge
pcs_jobs_queued 2
# HELP pcs_jobs_running Jobs currently executing.
# TYPE pcs_jobs_running gauge
pcs_jobs_running 2
# HELP pcs_jobs_done Jobs completed successfully.
# TYPE pcs_jobs_done counter
pcs_jobs_done 6
# HELP pcs_jobs_failed Jobs that returned an error or panicked.
# TYPE pcs_jobs_failed counter
pcs_jobs_failed 1
# HELP pcs_workers Configured workers across running campaigns.
# TYPE pcs_workers gauge
pcs_workers 4
# HELP pcs_worker_utilization Running jobs per configured worker.
# TYPE pcs_worker_utilization gauge
pcs_worker_utilization 0.5
# HELP pcs_jobs_per_second Aggregate job completion rate.
# TYPE pcs_jobs_per_second gauge
pcs_jobs_per_second 2.5
# HELP pcs_job_duration_seconds Job wall-clock duration by campaign kind.
# TYPE pcs_job_duration_seconds histogram
pcs_job_duration_seconds_bucket{kind="block",le="0.001"} 0
pcs_job_duration_seconds_bucket{kind="block",le="0.005"} 0
pcs_job_duration_seconds_bucket{kind="block",le="0.01"} 0
pcs_job_duration_seconds_bucket{kind="block",le="0.05"} 0
pcs_job_duration_seconds_bucket{kind="block",le="0.1"} 0
pcs_job_duration_seconds_bucket{kind="block",le="0.5"} 0
pcs_job_duration_seconds_bucket{kind="block",le="1"} 0
pcs_job_duration_seconds_bucket{kind="block",le="5"} 0
pcs_job_duration_seconds_bucket{kind="block",le="10"} 0
pcs_job_duration_seconds_bucket{kind="block",le="30"} 0
pcs_job_duration_seconds_bucket{kind="block",le="60"} 0
pcs_job_duration_seconds_bucket{kind="block",le="300"} 0
pcs_job_duration_seconds_bucket{kind="block",le="+Inf"} 0
pcs_job_duration_seconds_sum{kind="block"} 0
pcs_job_duration_seconds_count{kind="block"} 0
pcs_job_duration_seconds_bucket{kind="fail",le="0.001"} 0
pcs_job_duration_seconds_bucket{kind="fail",le="0.005"} 0
pcs_job_duration_seconds_bucket{kind="fail",le="0.01"} 0
pcs_job_duration_seconds_bucket{kind="fail",le="0.05"} 0
pcs_job_duration_seconds_bucket{kind="fail",le="0.1"} 0
pcs_job_duration_seconds_bucket{kind="fail",le="0.5"} 0
pcs_job_duration_seconds_bucket{kind="fail",le="1"} 0
pcs_job_duration_seconds_bucket{kind="fail",le="5"} 0
pcs_job_duration_seconds_bucket{kind="fail",le="10"} 0
pcs_job_duration_seconds_bucket{kind="fail",le="30"} 0
pcs_job_duration_seconds_bucket{kind="fail",le="60"} 0
pcs_job_duration_seconds_bucket{kind="fail",le="300"} 1
pcs_job_duration_seconds_bucket{kind="fail",le="+Inf"} 2
pcs_job_duration_seconds_sum{kind="fail"} 700
pcs_job_duration_seconds_count{kind="fail"} 2
pcs_job_duration_seconds_bucket{kind="square",le="0.001"} 1
pcs_job_duration_seconds_bucket{kind="square",le="0.005"} 2
pcs_job_duration_seconds_bucket{kind="square",le="0.01"} 2
pcs_job_duration_seconds_bucket{kind="square",le="0.05"} 2
pcs_job_duration_seconds_bucket{kind="square",le="0.1"} 2
pcs_job_duration_seconds_bucket{kind="square",le="0.5"} 3
pcs_job_duration_seconds_bucket{kind="square",le="1"} 4
pcs_job_duration_seconds_bucket{kind="square",le="5"} 4
pcs_job_duration_seconds_bucket{kind="square",le="10"} 4
pcs_job_duration_seconds_bucket{kind="square",le="30"} 5
pcs_job_duration_seconds_bucket{kind="square",le="60"} 5
pcs_job_duration_seconds_bucket{kind="square",le="300"} 5
pcs_job_duration_seconds_bucket{kind="square",le="+Inf"} 5
pcs_job_duration_seconds_sum{kind="square"} 31.2552
pcs_job_duration_seconds_count{kind="square"} 5
# HELP pcs_job_errors_total Failed jobs by campaign kind.
# TYPE pcs_job_errors_total counter
pcs_job_errors_total{kind="block"} 0
pcs_job_errors_total{kind="fail"} 1
pcs_job_errors_total{kind="square"} 0
# HELP pcs_job_duration_seconds_p50 Job duration quantile (q=0.5) by kind, interpolated from pcs_job_duration_seconds buckets at scrape time.
# TYPE pcs_job_duration_seconds_p50 gauge
pcs_job_duration_seconds_p50{kind="block"} NaN
pcs_job_duration_seconds_p50{kind="fail"} 300
pcs_job_duration_seconds_p50{kind="square"} 0.30000000000000004
# HELP pcs_job_duration_seconds_p95 Job duration quantile (q=0.95) by kind, interpolated from pcs_job_duration_seconds buckets at scrape time.
# TYPE pcs_job_duration_seconds_p95 gauge
pcs_job_duration_seconds_p95{kind="block"} NaN
pcs_job_duration_seconds_p95{kind="fail"} 300
pcs_job_duration_seconds_p95{kind="square"} 25
# HELP pcs_job_duration_seconds_p99 Job duration quantile (q=0.99) by kind, interpolated from pcs_job_duration_seconds buckets at scrape time.
# TYPE pcs_job_duration_seconds_p99 gauge
pcs_job_duration_seconds_p99{kind="block"} NaN
pcs_job_duration_seconds_p99{kind="fail"} 300
pcs_job_duration_seconds_p99{kind="square"} 29.000000000000004
# HELP resultstore_hits_total Campaign cells served from the content-addressed result store.
# TYPE resultstore_hits_total counter
resultstore_hits_total 2
# HELP resultstore_misses_total Campaign cells computed because the result store had no entry.
# TYPE resultstore_misses_total counter
resultstore_misses_total 2
# HELP resultstore_bytes Bytes stored in the result store, refreshed on scrape.
# TYPE resultstore_bytes gauge
resultstore_bytes 4096
`

// TestMetricsCacheOutcomes runs the same campaign twice against a
// server with a result store: two jobs of a kind with a decoder, one
// that fails, and one of a kind without a decoder, which never
// consults the store. The second run serves the two cells from the
// store; only done jobs that consulted it count as hits or misses,
// and resultstore_bytes is the store's exact footprint.
func TestMetricsCacheOutcomes(t *testing.T) {
	reg := serverRegistry(t)
	reg.MustRegisterKind("sq2", func(_ context.Context, _ uint64, params json.RawMessage) (any, error) {
		var p struct {
			X int `json:"x"`
		}
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, err
		}
		if p.X < 0 {
			return nil, errors.New("negative")
		}
		return map[string]int{"sq": p.X * p.X}, nil
	}, KindInfo{DecodeOutput: func(data []byte) (any, error) {
		var out map[string]int
		return out, json.Unmarshal(data, &out)
	}})
	store, err := resultstore.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, fixtureExpand, ServerOptions{DefaultWorkers: 2, Cache: store})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	body := `{"version":1,"name":"c","seed":1,"campaign":{"jobs":[
		{"kind":"sq2","params":{"x":2}},{"kind":"sq2","params":{"x":3}},
		{"kind":"sq2","params":{"x":-1}},{"kind":"square","params":{"x":4}}]}}`
	for i := 0; i < 2; i++ {
		waitForState(t, ts, submit(t, ts, body), "done")
	}
	st, err := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	out := scrapeMetrics(t, ts)
	for _, want := range []string{
		"resultstore_hits_total 2\n",
		"resultstore_misses_total 2\n",
		"resultstore_bytes " + formatValue(float64(st.Bytes)) + "\n",
		"pcs_jobs_done 6\n",
		"pcs_jobs_failed 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	if st.Entries != 2 || st.Bytes == 0 {
		t.Errorf("store holds %d entries, %d bytes; want the 2 sq2 cells", st.Entries, st.Bytes)
	}
}

// TestHistogramQuantile checks the interpolated bucket-quantile
// estimate on a known distribution.
func TestHistogramQuantile(t *testing.T) {
	var k kindMetrics
	if got := k.quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("empty histogram p50 = %v, want NaN", got)
	}

	// 10 observations in the first bucket, [0, 0.001]: every quantile
	// interpolates inside it.
	for i := 0; i < 10; i++ {
		k.observe(0.0005)
	}
	if got, want := k.quantile(0.5), 0.0005; math.Abs(got-want) > 1e-12 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	if got, want := k.quantile(1.0), 0.001; math.Abs(got-want) > 1e-12 {
		t.Errorf("p100 = %v, want %v", got, want)
	}

	// Add 10 observations in (1, 5]: 20 total, half <= 0.001.
	for i := 0; i < 10; i++ {
		k.observe(3)
	}
	// p75: rank 15, 10 below, 5 of 10 into the (1, 5] bucket → 3.
	if got, want := k.quantile(0.75), 3.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("p75 = %v, want %v", got, want)
	}

	// Overflow: a value beyond the last bound pins high quantiles to
	// the largest finite bound.
	k.observe(1000)
	if got, want := k.quantile(0.999), 300.0; got != want {
		t.Errorf("p99.9 with overflow = %v, want %v", got, want)
	}
}
