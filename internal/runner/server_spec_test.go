// External tests for the server's spec-document and probe endpoints:
// they need internal/config (which imports this package), so they live
// in runner_test to keep the dependency one-way.
package runner_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/expers"
	"repro/internal/runner"
)

func newSpecServer(t *testing.T) (*runner.Server, *httptest.Server) {
	t.Helper()
	srv := runner.NewServer(expers.NewCampaignRegistry(), config.ExpandBytes, runner.ServerOptions{
		DefaultWorkers: 2,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return out
}

func TestHealthz(t *testing.T) {
	_, ts := newSpecServer(t)
	out := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if out["status"] != "ok" {
		t.Fatalf("healthz status = %v", out["status"])
	}
	if _, ok := out["uptime_seconds"].(float64); !ok {
		t.Fatalf("healthz uptime_seconds missing: %v", out)
	}
}

func TestReadyzDrains(t *testing.T) {
	srv, ts := newSpecServer(t)
	if out := getJSON(t, ts.URL+"/readyz", http.StatusOK); out["status"] != "ready" {
		t.Fatalf("readyz status = %v", out["status"])
	}

	srv.BeginDrain()
	if out := getJSON(t, ts.URL+"/readyz", http.StatusServiceUnavailable); out["status"] != "draining" {
		t.Fatalf("draining readyz status = %v", out["status"])
	}
	// Liveness is unaffected by draining: the process is still up.
	if out := getJSON(t, ts.URL+"/healthz", http.StatusOK); out["status"] != "ok" {
		t.Fatalf("healthz while draining = %v", out["status"])
	}

	// New submissions are refused while draining.
	spec := `{"version": 1, "campaign": {"jobs": [{"kind": "cells"}]}}`
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
}

// waitDone polls the status endpoint until the campaign leaves the
// running state.
func waitDone(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		out := getJSON(t, ts.URL+"/campaigns/"+id, http.StatusOK)
		if out["state"] != "running" {
			return out
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("campaign did not finish")
	return nil
}

// TestSubmitSpecDocument posts the same declarative document the CLI
// takes via -spec and checks it expands and runs through the registry.
func TestSubmitSpecDocument(t *testing.T) {
	_, ts := newSpecServer(t)
	spec := `{
	  "version": 1,
	  "seed": 7,
	  "campaign": {
	    "jobs": [
	      {"kind": "cells"},
	      {"kind": "vddlevels", "params": {"levels": 2}}
	    ]
	  }
	}`
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit spec: status %d", resp.StatusCode)
	}
	var sub struct {
		ID   string `json:"id"`
		Jobs int    `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if sub.Jobs != 2 {
		t.Fatalf("jobs = %d, want 2", sub.Jobs)
	}
	status := waitDone(t, ts, sub.ID)
	if status["state"] != "done" {
		t.Fatalf("state = %v: %v", status["state"], status)
	}
	if status["name"] != "campaign" {
		t.Fatalf("campaign name = %v, want the section default", status["name"])
	}
}

// postStatus posts a body to /campaigns and returns the response status
// and its "error" message.
func postStatus(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Error string `json:"error"`
	}
	// A non-JSON response leaves the message empty, which fails every
	// caller that checks it.
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out.Error
}

// TestSubmitSpecTOML checks a TOML spec body is refused with a 400
// instead of being queued: the one spec decoder is JSON only.
func TestSubmitSpecTOML(t *testing.T) {
	_, ts := newSpecServer(t)
	spec := `
version = 1

[[campaign.jobs]]
kind = "cells"
`
	if code, msg := postStatus(t, ts, spec); code != http.StatusBadRequest || !strings.Contains(msg, "bad spec") {
		t.Fatalf("submit TOML spec: status %d %q, want 400 bad spec", code, msg)
	}
}

// TestSubmitSpecRejected checks malformed and invalid specs come back
// as 400s, not queued campaigns.
func TestSubmitSpecRejected(t *testing.T) {
	_, ts := newSpecServer(t)
	for _, body := range []string{
		`{"version": 2, "campaign": {"jobs": [{"kind": "cells"}]}}`,
		`{"version": 1, "campaign": {"jobs": [{"kind": "nope"}]}}`,
		`{"version": 1, "campaign": {"jobs": [{"kind": "cells", "params": {"bogus": 1}}]}}`,
		`{"campaign": {"jobs": [{"kind": "cells"}]}}`,
		`version = 1`,
		`not toml at [[ all`,
	} {
		if code, _ := postStatus(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("submit %q: status %d, want 400", body, code)
		}
	}
}

// TestLegacySubmitRejected pins that the old low-level job-list body
// (no "version", jobs at the top level) gets a 400 naming the unknown
// field; the same jobs run as a spec with a "campaign" section.
func TestLegacySubmitRejected(t *testing.T) {
	_, ts := newSpecServer(t)
	body := `{"name": "legacy", "seed": 3, "jobs": [{"kind": "cells", "name": "c", "params": {}}]}`
	code, msg := postStatus(t, ts, body)
	if code != http.StatusBadRequest || !strings.Contains(msg, `unknown field "jobs"`) {
		t.Fatalf("legacy submit: status %d %q, want 400 naming the unknown field", code, msg)
	}
}
