package runner

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracez"
)

// readSpanStream consumes one /spans NDJSON stream to completion.
func readSpanStream(t *testing.T, ts *httptest.Server, id string) []tracez.Span {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("spans content type %q", ct)
	}
	var spans []tracez.Span
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var sp tracez.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("span line %d: %v", len(spans)+1, err)
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

// TestServerSpansStreamConcurrent runs a traced campaign with several
// concurrent /spans and /events readers (exercised under -race by the
// test suite). Every reader must see a complete, well-formed stream:
// one campaign span plus a job span per job, and an event stream that
// terminates with campaign_finished.
func TestServerSpansStreamConcurrent(t *testing.T) {
	srv := NewServer(serverRegistry(t), fixtureExpand, ServerOptions{DefaultWorkers: 4, TraceSpans: true})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	const jobs = 6
	var specs []string
	for i := 0; i < jobs; i++ {
		specs = append(specs, fmt.Sprintf(`{"kind":"square","params":{"x":%d}}`, i))
	}
	id := submit(t, ts, fmt.Sprintf(`{"version":1,"name":"traced","seed":9,"campaign":{"jobs":[%s]}}`, strings.Join(specs, ",")))

	const readers = 3
	spanStreams := make([][]tracez.Span, readers)
	eventStreams := make([][]obs.JobEvent, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(2)
		go func(r int) {
			defer wg.Done()
			spanStreams[r] = readSpanStream(t, ts, id)
		}(r)
		go func(r int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/campaigns/" + id + "/events")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var ev obs.JobEvent
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					t.Errorf("event line: %v", err)
					return
				}
				eventStreams[r] = append(eventStreams[r], ev)
			}
		}(r)
	}
	wg.Wait()

	for r, spans := range spanStreams {
		var campaigns, jobSpans int
		for _, sp := range spans {
			switch sp.Name {
			case "campaign":
				campaigns++
			case "job":
				jobSpans++
			}
		}
		if campaigns != 1 || jobSpans != jobs {
			t.Errorf("reader %d: %d campaign spans, %d job spans (want 1, %d)", r, campaigns, jobSpans, jobs)
		}
	}
	for r, events := range eventStreams {
		if len(events) == 0 {
			t.Fatalf("reader %d saw no events", r)
		}
		last := events[len(events)-1]
		if last.Type != obs.EventCampaignFinished {
			t.Errorf("reader %d last event %+v", r, last)
		}
		var withResources int
		for _, ev := range events {
			if ev.Type == obs.EventJobDone && ev.Resources != nil {
				withResources++
			}
		}
		if withResources != jobs {
			t.Errorf("reader %d: %d terminal events carry resources, want %d", r, withResources, jobs)
		}
	}

	// The scrape now carries quantile summary gauges next to the raw
	// histogram, and the whole exposition still validates.
	out := scrapeMetrics(t, ts)
	if err := obs.ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE pcs_job_duration_seconds_p50 gauge",
		`pcs_job_duration_seconds_p50{kind="square"}`,
		`pcs_job_duration_seconds_p95{kind="square"}`,
		`pcs_job_duration_seconds_p99{kind="square"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestServerSpansDisabled checks the stream contract on a server
// without tracing: the endpoint exists, delivers nothing, and closes
// when the campaign finishes; unknown campaigns 404.
func TestServerSpansDisabled(t *testing.T) {
	_, ts := newTestServer(t)
	id := submit(t, ts, `{"version":1,"name":"plain","campaign":{"jobs":[{"kind":"square","params":{"x":2}}]}}`)
	waitForState(t, ts, id, "done")
	if spans := readSpanStream(t, ts, id); len(spans) != 0 {
		t.Fatalf("untraced server streamed %d spans", len(spans))
	}
	resp, err := http.Get(ts.URL + "/campaigns/c999999/spans")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign spans status %d", resp.StatusCode)
	}
}

// TestBeginDrainFlushesArtifacts submits a campaign that blocks
// mid-run, calls BeginDrain, and checks the run directory's timeline
// and span sidecars were fsynced with only whole JSON lines — the
// shutdown contract: whatever has happened so far is on disk before
// the process exits.
func TestBeginDrainFlushesArtifacts(t *testing.T) {
	root := t.TempDir()
	srv := NewServer(serverRegistry(t), fixtureExpand, ServerOptions{
		DefaultWorkers: 2, ArtifactRoot: root, TraceSpans: true,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	// Two fast jobs complete, two block: the campaign is mid-flight.
	id := submit(t, ts, `{"version":1,"name":"drainme","seed":1,"campaign":{"jobs":[
		{"kind":"square","params":{"x":1}},{"kind":"square","params":{"x":2}},
		{"kind":"block"},{"kind":"block"}]}}`)
	waitForJobsDone(t, ts, id, 2)

	srv.BeginDrain()

	dir := filepath.Join(root, id)
	events, err := obs.ReadJobTimeline(filepath.Join(dir, "timeline.jsonl"))
	if err != nil {
		t.Fatalf("timeline after drain: %v", err)
	}
	var done int
	for _, ev := range events {
		if ev.Type == obs.EventJobDone {
			done++
		}
	}
	if done < 2 {
		t.Fatalf("drained timeline shows %d done jobs, want >= 2", done)
	}
	spans, err := tracez.ReadFile(filepath.Join(dir, tracez.FileName))
	if err != nil {
		t.Fatalf("spans after drain: %v", err)
	}
	var jobSpans int
	for _, sp := range spans {
		if sp.Name == "job" {
			jobSpans++
		}
	}
	if jobSpans < 2 {
		t.Fatalf("drained spans show %d job spans, want >= 2", jobSpans)
	}
}

// waitForJobsDone polls the status endpoint until at least n jobs have
// completed.
func waitForJobsDone(t *testing.T, ts *httptest.Server, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if v := getStatus(t, ts, id); v.Progress.Done >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s never completed %d jobs", id, n)
}
