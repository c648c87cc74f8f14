package runner

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
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

// TestServerSpansStreamConcurrent runs a campaign with several
// concurrent /spans readers (exercised under -race by the test suite).
// Every reader must see a complete, well-formed stream: one campaign
// span plus a job span per job carrying its status and resource block.
func TestServerSpansStreamConcurrent(t *testing.T) {
	_, ts := newTestServer(t)

	const jobs = 6
	var specs []string
	for i := 0; i < jobs; i++ {
		specs = append(specs, fmt.Sprintf(`{"kind":"square","params":{"x":%d}}`, i))
	}
	id := submit(t, ts, fmt.Sprintf(`{"version":1,"name":"traced","seed":9,"campaign":{"jobs":[%s]}}`, strings.Join(specs, ",")))

	const readers = 3
	spanStreams := make([][]tracez.Span, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			spanStreams[r] = readSpanStream(t, ts, id)
		}(r)
	}
	wg.Wait()

	for r, spans := range spanStreams {
		camp, jobSpans, attrs := campaignAndJobs(t, spans)
		if camp.Parent != "" || len(attrs) != jobs {
			t.Errorf("reader %d: campaign span %+v, %d job spans (want %d)", r, camp, len(attrs), jobs)
		}
		for i, a := range attrs {
			raw := string(jobSpans[i].Attrs)
			if a.Status != string(StatusDone) || a.Kind != "square" ||
				!strings.Contains(raw, `"cpu_ms":`) || strings.Contains(raw, `"alloc`) {
				t.Errorf("reader %d: job %d attrs %s", r, i, raw)
			}
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

// TestServerSpansStreamPushes checks /spans is pushed, not polled: a
// reader receives job 0's span while job 1 is still blocked on a
// channel only the test can release, and the response ends once the
// campaign is terminal. Unknown campaigns 404.
func TestServerSpansStreamPushes(t *testing.T) {
	release := make(chan struct{})
	reg := serverRegistry(t)
	reg.MustRegister("gate", func(ctx context.Context, _ uint64, _ json.RawMessage) (any, error) {
		select {
		case <-release:
			return "released", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	srv := NewServer(reg, fixtureExpand, ServerOptions{DefaultWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	id := submit(t, ts, `{"version":1,"name":"push","seed":2,"campaign":{"jobs":[
		{"kind":"square","params":{"x":3}},{"kind":"gate"}]}}`)

	// A stalled stream fails the test instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/campaigns/"+id+"/spans", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	next := func() (tracez.Span, error) {
		var sp tracez.Span
		err := dec.Decode(&sp)
		return sp, err
	}
	for {
		sp, err := next()
		if err != nil {
			t.Fatalf("stream ended before job 0's span: %v", err)
		}
		if sp.Name != "job" {
			continue
		}
		var a jobAttrs
		decodeAttrs(t, sp, &a)
		if a.Job != 0 || a.Status != string(StatusDone) {
			t.Fatalf("first job span %+v while job 1 is blocked", a)
		}
		break
	}

	close(release)
	var job1, campaign bool
	for {
		sp, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream after release: %v", err)
		}
		switch sp.Name {
		case "job":
			var a jobAttrs
			decodeAttrs(t, sp, &a)
			job1 = a.Job == 1 && a.Status == string(StatusDone)
		case "campaign":
			campaign = true
		}
	}
	if !job1 || !campaign {
		t.Fatalf("stream ended without job 1's span (%v) or the campaign span (%v)", job1, campaign)
	}
	if v := getStatus(t, ts, id); v.State != "done" {
		t.Fatalf("stream ended with the campaign %s", v.State)
	}

	resp2, err := http.Get(ts.URL + "/campaigns/c999999/spans")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign spans status %d", resp2.StatusCode)
	}
}

// TestBeginDrainFlushesArtifacts submits a campaign that blocks
// mid-run, calls BeginDrain, and checks the run directory's
// spans.jsonl was fsynced with only whole JSON lines — the shutdown
// contract: whatever has happened so far is on disk before the process
// exits.
func TestBeginDrainFlushesArtifacts(t *testing.T) {
	root := t.TempDir()
	srv := NewServer(serverRegistry(t), fixtureExpand, ServerOptions{
		DefaultWorkers: 2, ArtifactRoot: root,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	// Two fast jobs complete, two block: the campaign is mid-flight.
	id := submit(t, ts, `{"version":1,"name":"drainme","seed":1,"campaign":{"jobs":[
		{"kind":"square","params":{"x":1}},{"kind":"square","params":{"x":2}},
		{"kind":"block"},{"kind":"block"}]}}`)
	waitForJobsDone(t, ts, id, 2)

	srv.BeginDrain()

	spans, err := tracez.ReadFile(filepath.Join(root, id, tracez.FileName))
	if err != nil {
		t.Fatalf("spans after drain: %v", err)
	}
	var done int
	for _, sp := range spans {
		if sp.Name != "job" {
			continue
		}
		var a jobAttrs
		decodeAttrs(t, sp, &a)
		if a.Status == string(StatusDone) {
			done++
		}
	}
	if done < 2 {
		t.Fatalf("drained spans show %d done jobs, want >= 2", done)
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
