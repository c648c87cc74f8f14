package runner

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestMetricsExposition scrapes /metrics and validates the exposition
// format strictly: HELP/TYPE pairs, no duplicates, correct counter
// types, and well-formed cumulative histograms.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t)

	// Idle scrape must already be valid (all families render at zero).
	idle := scrapeMetrics(t, ts)
	if err := ValidateExposition(strings.NewReader(idle)); err != nil {
		t.Fatalf("idle exposition invalid: %v\n%s", err, idle)
	}

	var jobs []string
	for i := 0; i < 4; i++ {
		jobs = append(jobs, fmt.Sprintf(`{"kind":"square","params":{"x":%d}}`, i))
	}
	id := submit(t, ts, fmt.Sprintf(`{"version":1,"name":"m","seed":1,"campaign":{"jobs":[%s]}}`, strings.Join(jobs, ",")))
	waitForState(t, ts, id, "done")

	out := scrapeMetrics(t, ts)
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	// The satellite fix: submission and terminal-job totals are counters,
	// not gauges.
	for _, want := range []string{
		"# TYPE pcs_campaigns_total counter",
		"# TYPE pcs_jobs_done counter",
		"# TYPE pcs_jobs_failed counter",
		"# TYPE pcs_campaigns_running gauge",
		"# TYPE pcs_job_duration_seconds histogram",
		"# TYPE pcs_job_errors_total counter",
		"pcs_campaigns_total 1",
		"pcs_jobs_done 4",
		`pcs_job_duration_seconds_count{kind="square"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsCountFailures checks the per-kind error counter and that
// failed jobs still land in the duration histogram.
func TestMetricsCountFailures(t *testing.T) {
	srv := NewServer(testRegistry(t), fixtureExpand, ServerOptions{DefaultWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	id := submit(t, ts, `{"version":1,"name":"f","seed":1,"campaign":{"jobs":[{"kind":"fail"},{"kind":"fail"},{"kind":"drawsum","params":{"draws":10}}]}}`)
	waitForState(t, ts, id, "done")

	out := scrapeMetrics(t, ts)
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		"pcs_jobs_failed 2",
		`pcs_job_errors_total{kind="fail"} 2`,
		`pcs_job_duration_seconds_count{kind="fail"} 2`,
		`pcs_job_duration_seconds_count{kind="drawsum"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestServerLogging checks the structured log captures submission and
// completion with the campaign id.
func TestServerLogging(t *testing.T) {
	var buf bytes.Buffer
	srv := NewServer(serverRegistry(t), fixtureExpand, ServerOptions{
		DefaultWorkers: 2,
		Logger:         slog.New(slog.NewTextHandler(&syncWriter{w: &buf}, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := submit(t, ts, `{"version":1,"name":"logged","seed":1,"campaign":{"jobs":[{"kind":"square","params":{"x":2}}]}}`)
	waitForState(t, ts, id, "done")
	srv.Close()
	out := buf.String()
	for _, want := range []string{"campaign submitted", "campaign finished", "id=" + id, "state=done"} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %q:\n%s", want, out)
		}
	}
}

// syncWriter serialises concurrent slog writes from campaign goroutines.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
