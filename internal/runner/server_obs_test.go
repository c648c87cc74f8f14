package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
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
	if err := obs.ValidateExposition(strings.NewReader(idle)); err != nil {
		t.Fatalf("idle exposition invalid: %v\n%s", err, idle)
	}

	var jobs []string
	for i := 0; i < 4; i++ {
		jobs = append(jobs, fmt.Sprintf(`{"kind":"square","params":{"x":%d}}`, i))
	}
	id := submit(t, ts, fmt.Sprintf(`{"version":1,"name":"m","seed":1,"campaign":{"jobs":[%s]}}`, strings.Join(jobs, ",")))
	waitForState(t, ts, id, "done")

	out := scrapeMetrics(t, ts)
	if err := obs.ValidateExposition(strings.NewReader(out)); err != nil {
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
	if err := obs.ValidateExposition(strings.NewReader(out)); err != nil {
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

// TestServerEventsStream reads the NDJSON lifecycle stream of a
// campaign: it must open with campaign_started, contain a started and a
// terminal event per job, and close with campaign_finished.
func TestServerEventsStream(t *testing.T) {
	_, ts := newTestServer(t)
	id := submit(t, ts, `{"version":1,"name":"ev","seed":3,"campaign":{"jobs":[{"kind":"square","params":{"x":1}},{"kind":"square","params":{"x":2}}]}}`)

	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	var events []obs.JobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev obs.JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %d: %v", len(events)+1, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("stream delivered %d events", len(events))
	}
	if events[0].Type != obs.EventCampaignStarted {
		t.Fatalf("first event %+v", events[0])
	}
	last := events[len(events)-1]
	if last.Type != obs.EventCampaignFinished || last.State != "done" {
		t.Fatalf("last event %+v", last)
	}
	started, done := 0, 0
	for _, ev := range events {
		switch ev.Type {
		case obs.EventJobStarted:
			started++
		case obs.EventJobDone:
			done++
			if ev.DurationMS < 0 {
				t.Errorf("negative job duration: %+v", ev)
			}
		}
	}
	if started != 2 || done != 2 {
		t.Fatalf("started=%d done=%d, want 2/2", started, done)
	}
	// 404 for unknown campaigns.
	resp2, err := http.Get(ts.URL + "/campaigns/c999999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign events status %d", resp2.StatusCode)
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
