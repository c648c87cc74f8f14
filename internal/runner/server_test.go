package runner

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// serverRegistry provides a fast deterministic kind ("square") and a
// blocking kind ("block") for exercising the HTTP surface.
func serverRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	reg.MustRegister("square", func(_ context.Context, _ uint64, params json.RawMessage) (any, error) {
		var p struct {
			X int `json:"x"`
		}
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, err
		}
		return map[string]int{"x": p.X, "square": p.X * p.X}, nil
	})
	reg.MustRegister("block", func(ctx context.Context, _ uint64, _ json.RawMessage) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	return reg
}

// fixtureExpand stands in for config.ExpandBytes, which this package
// cannot import: it strict-decodes the campaign-section shape of a spec
// document, {"version":1,"name","seed","workers","campaign":{"jobs"}},
// without the config layer's per-kind parameter checks, so the test-only
// kinds above can be submitted.
func fixtureExpand(body []byte) (Campaign, int, error) {
	var doc struct {
		Version  int    `json:"version"`
		Name     string `json:"name"`
		Seed     uint64 `json:"seed"`
		Workers  int    `json:"workers"`
		Campaign struct {
			Jobs []Spec `json:"jobs"`
		} `json:"campaign"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return Campaign{}, 0, err
	}
	if doc.Version != 1 {
		return Campaign{}, 0, fmt.Errorf("unsupported spec version %d", doc.Version)
	}
	return Campaign{Name: doc.Name, Seed: doc.Seed, Jobs: doc.Campaign.Jobs}, doc.Workers, nil
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(serverRegistry(t), fixtureExpand, ServerOptions{DefaultWorkers: 4})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// submit posts a campaign and returns its id.
func submit(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("submit status %d: %s", resp.StatusCode, buf.String())
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" {
		t.Fatal("submit returned no id")
	}
	return out.ID
}

func getStatus(t *testing.T, ts *httptest.Server, id string) statusView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d for campaign %s", resp.StatusCode, id)
	}
	var v statusView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitForState(t *testing.T, ts *httptest.Server, id, want string) statusView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v := getStatus(t, ts, id)
		if v.State == want {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached state %q", id, want)
	return statusView{}
}

// TestServerSubmitPollResults drives the whole flow: submit a campaign,
// poll its status to completion, stream the JSONL results, and scrape
// the metrics endpoint.
func TestServerSubmitPollResults(t *testing.T) {
	_, ts := newTestServer(t)
	var jobs []string
	for i := 0; i < 5; i++ {
		jobs = append(jobs, fmt.Sprintf(`{"kind":"square","name":"sq-%d","params":{"x":%d}}`, i, i))
	}
	id := submit(t, ts, fmt.Sprintf(`{"version":1,"name":"squares","seed":7,"campaign":{"jobs":[%s]}}`, strings.Join(jobs, ",")))

	v := waitForState(t, ts, id, "done")
	if v.Progress.Done != 5 || v.Progress.Failed != 0 {
		t.Fatalf("progress %+v", v.Progress)
	}
	if v.CompletedResults != 5 {
		t.Fatalf("completed results %d, want 5", v.CompletedResults)
	}

	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	n := 0
	for sc.Scan() {
		var rec struct {
			Index  int    `json:"index"`
			Status string `json:"status"`
			Output struct {
				X      int `json:"x"`
				Square int `json:"square"`
			} `json:"output"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if rec.Index != n || rec.Status != "done" || rec.Output.Square != n*n {
			t.Fatalf("line %d: %+v", n, rec)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("streamed %d records, want 5", n)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	metrics := buf.String()
	for _, want := range []string{"pcs_jobs_done 5", "pcs_jobs_failed 0", "pcs_campaigns_total 1", "pcs_worker_utilization", "pcs_jobs_per_second"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestServerValidation covers submit rejections and unknown ids.
func TestServerValidation(t *testing.T) {
	_, ts := newTestServer(t)
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"version":1,"name":"x","campaign":{"jobs":[]}}`); code != http.StatusBadRequest {
		t.Fatalf("empty jobs: status %d", code)
	}
	if code := post(`{"version":1,"name":"x","campaign":{"jobs":[{"kind":"nope"}]}}`); code != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d", code)
	}
	if code := post(`not json`); code != http.StatusBadRequest {
		t.Fatalf("bad body: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/campaigns/c999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", resp.StatusCode)
	}
}

// TestServerCancel submits a blocking campaign and cancels it over HTTP.
func TestServerCancel(t *testing.T) {
	_, ts := newTestServer(t)
	id := submit(t, ts, `{"version":1,"name":"stuck","campaign":{"jobs":[{"kind":"block"},{"kind":"block"}]}}`)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	v := waitForState(t, ts, id, "cancelled")
	if v.State != "cancelled" {
		t.Fatalf("state %q", v.State)
	}
}

// TestServerCloseDrains checks Close unblocks running campaigns — the
// SIGTERM drain path.
func TestServerCloseDrains(t *testing.T) {
	srv := NewServer(serverRegistry(t), fixtureExpand, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := submit(t, ts, `{"version":1,"name":"stuck","campaign":{"jobs":[{"kind":"block"}]}}`)

	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain the running campaign")
	}
	// The campaign must have been marked cancelled before Close returned.
	if v := getStatus(t, ts, id); v.State != "cancelled" {
		t.Fatalf("state after Close = %q, want cancelled", v.State)
	}
	// New submissions are refused during/after shutdown.
	resp, err := http.Post(ts.URL+"/campaigns", "application/json",
		strings.NewReader(`{"version":1,"name":"late","campaign":{"jobs":[{"kind":"square","params":{"x":1}}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit status %d, want 503", resp.StatusCode)
	}
}

// TestServerList checks the campaign listing endpoint.
func TestServerList(t *testing.T) {
	_, ts := newTestServer(t)
	submit(t, ts, `{"version":1,"name":"a","campaign":{"jobs":[{"kind":"square","params":{"x":2}}]}}`)
	submit(t, ts, `{"version":1,"name":"b","campaign":{"jobs":[{"kind":"square","params":{"x":3}}]}}`)
	resp, err := http.Get(ts.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Campaigns []statusView `json:"campaigns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Campaigns) != 2 || out.Campaigns[0].Name != "a" || out.Campaigns[1].Name != "b" {
		t.Fatalf("listing %+v", out.Campaigns)
	}
}
