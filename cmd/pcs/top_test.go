package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/obs/tracez"
	"repro/internal/runner"
)

// runCmd runs one pcs subcommand in process and returns its exit code,
// stdout and stderr.
func runCmd(cmd func(stdout, stderr io.Writer) *cli.Command, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	app := &cli.App{Name: "pcs", Output: &stderr}
	c := cmd(&stdout, &stderr)
	app.Register(c)
	code := app.Run(append([]string{c.Name}, args...))
	return code, stdout.String(), stderr.String()
}

// stdoutOnly adapts a command that writes only to stdout for runCmd.
func stdoutOnly(cmd func(io.Writer) *cli.Command) func(stdout, stderr io.Writer) *cli.Command {
	return func(stdout, _ io.Writer) *cli.Command { return cmd(stdout) }
}

// cellOutput reports a simulated energy to the runner, as the
// simulator kinds' outputs do.
type cellOutput struct {
	MilliJ float64 `json:"mj"`
}

func (cellOutput) ResourceCounts() (int, uint64) { return 0, 0 }
func (o cellOutput) EnergyJ() float64            { return o.MilliJ / 1e3 }

// topRegistry has a kind reporting a simulated energy, as the simulator
// kinds do, and a kind that fails.
func topRegistry() *runner.Registry {
	reg := runner.NewRegistry()
	reg.MustRegister("cell", func(_ context.Context, _ uint64, params json.RawMessage) (any, error) {
		var out cellOutput
		if err := json.Unmarshal(params, &out); err != nil {
			return nil, err
		}
		return out, nil
	})
	reg.MustRegister("fail", func(context.Context, uint64, json.RawMessage) (any, error) {
		return nil, errors.New("deliberate failure")
	})
	return reg
}

// topCampaign is three cells and one failing job.
var topCampaign = runner.Campaign{Name: "top", Seed: 4, Jobs: []runner.Spec{
	{Kind: "cell", Name: "alpha", Params: json.RawMessage(`{"mj":4}`)},
	{Kind: "cell", Name: "beta", Params: json.RawMessage(`{"mj":2}`)},
	{Kind: "fail", Name: "broken"},
	{Kind: "cell", Name: "gamma", Params: json.RawMessage(`{"mj":1}`)},
}}

// wantRows is topCampaign's top-cells rows without the measured
// columns: cell, kind, status, cache, transitions, writebacks, energy.
var wantRows = map[string]string{
	"alpha":  "cell done - 0 0 4",
	"beta":   "cell done - 0 0 2",
	"broken": "fail failed - 0 0 0",
	"gamma":  "cell done - 0 0 1",
}

// topRows parses the "Top cells" table out of a rendering, keyed by
// cell, dropping the wall and cpu columns, which vary run to run. It
// also checks the per-kind totals table follows.
func topRows(t *testing.T, out string) map[string]string {
	t.Helper()
	_, table, ok := strings.Cut(out, "== Top cells by resource usage ==\n")
	if !ok {
		t.Fatalf("no top-cells table in:\n%s", out)
	}
	table, kinds, ok := strings.Cut(table, "\n\n")
	if !ok || !strings.Contains(kinds, "== Per-kind totals ==") {
		t.Fatalf("no per-kind totals after the top-cells table:\n%s", out)
	}
	for _, k := range []string{"\ncell ", "\nfail "} {
		if !strings.Contains(kinds, k) {
			t.Errorf("per-kind totals lack kind %q:\n%s", strings.TrimSpace(k), kinds)
		}
	}
	rows := make(map[string]string)
	for _, line := range strings.Split(table, "\n")[2:] {
		f := strings.Fields(line)
		if len(f) != 9 {
			t.Fatalf("top-cells row %q has %d columns", line, len(f))
		}
		rows[f[0]] = strings.Join(append(f[1:3], f[5:]...), " ")
	}
	return rows
}

func checkRows(t *testing.T, what, out string) {
	t.Helper()
	rows := topRows(t, out)
	if len(rows) != len(wantRows) {
		t.Errorf("%s: %d rows, want %d:\n%s", what, len(rows), len(wantRows), out)
	}
	for cell, want := range wantRows {
		if rows[cell] != want {
			t.Errorf("%s: row %s = %q, want %q", what, cell, rows[cell], want)
		}
	}
}

// TestTopReadsJobSpans checks the readers of a run directory's job
// spans: `pcs report -top` and `pcs top` print one row per job with its
// status and energy, then the per-kind totals, and `pcs report
// -perfetto` writes a complete event for every job span.
func TestTopReadsJobSpans(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	if _, err := runner.Run(context.Background(), topRegistry(), topCampaign, runner.Options{Workers: 2, ArtifactDir: dir}); err != nil {
		t.Fatal(err)
	}

	code, reportOut, stderr := runCmd(reportCommand, "-top", "-n", "0", dir)
	if code != 0 {
		t.Fatalf("report -top: exit %d: %s", code, stderr)
	}
	checkRows(t, "report -top", reportOut)
	code, topOut, stderr := runCmd(stdoutOnly(topCommand), "-n", "0", dir)
	if code != 0 {
		t.Fatalf("top: exit %d: %s", code, stderr)
	}
	if topOut != reportOut {
		t.Errorf("pcs top and pcs report -top differ:\n%s\n%s", topOut, reportOut)
	}

	trace := filepath.Join(t.TempDir(), "trace.json")
	code, stdout, stderr := runCmd(reportCommand, "-perfetto", "-o", trace, dir)
	if code != 0 {
		t.Fatalf("report -perfetto: exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "to "+trace) {
		t.Errorf("report -perfetto printed %q", stdout)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			Args  struct {
				Job    *int   `json:"job"`
				Status string `json:"status"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	jobs := make(map[int]string)
	for _, ev := range doc.TraceEvents {
		if ev.Name == "job" && ev.Phase == "X" && ev.Args.Job != nil {
			jobs[*ev.Args.Job] = ev.Args.Status
		}
	}
	if len(jobs) != len(topCampaign.Jobs) || jobs[2] != "failed" || jobs[0] != "done" {
		t.Errorf("perfetto job events %v, want one per job with job 2 failed", jobs)
	}
}

// TestTopLive checks `pcs top -addr -once` renders the same rows from
// a live server's span stream.
func TestTopLive(t *testing.T) {
	expand := func(body []byte) (runner.Campaign, int, error) {
		var c runner.Campaign
		err := json.Unmarshal(body, &c)
		return c, 2, err
	}
	srv := runner.NewServer(topRegistry(), expand, runner.ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	body, err := json.Marshal(topCampaign)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || sub.ID == "" {
		t.Fatalf("submit: %v (id %q)", err, sub.ID)
	}
	// The span stream ends once the campaign is terminal.
	resp, err = http.Get(ts.URL + "/campaigns/" + sub.ID + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	spans, err := tracez.ReadSpans(resp.Body)
	resp.Body.Close()
	if err != nil || len(spans) == 0 {
		t.Fatalf("span stream: %d spans, err %v", len(spans), err)
	}

	code, stdout, stderr := runCmd(stdoutOnly(topCommand), "-addr", ts.URL, "-once", "-n", "0", sub.ID)
	if code != 0 {
		t.Fatalf("top -addr: exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "campaign "+sub.ID+" on "+ts.URL+" — 4 terminal cells") {
		t.Errorf("top -addr header missing:\n%s", stdout)
	}
	checkRows(t, "top -addr", stdout)
}

// TestTopRunDirErrors checks both readers fail on a missing run
// directory, and on one without spans.jsonl — such as a run recorded
// before job spans, which has only timeline.jsonl — with a message
// naming spans.jsonl.
func TestTopRunDirErrors(t *testing.T) {
	old := t.TempDir()
	for name, body := range map[string]string{
		"manifest.json":  `{"campaign":"old","seed":1,"jobs":1,"sidecars":["timeline.jsonl"],"specs":[{"kind":"cell"}]}` + "\n",
		"results.jsonl":  `{"index":0,"kind":"cell","seed":1,"status":"done"}` + "\n",
		"timeline.jsonl": `{"type":"job_done","index":0,"kind":"cell","elapsed_ms":1,"duration_ms":1}` + "\n",
	} {
		if err := os.WriteFile(filepath.Join(old, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	missing := filepath.Join(t.TempDir(), "nosuch")
	for _, tc := range []struct {
		cmd  func(stdout, stderr io.Writer) *cli.Command
		args []string
	}{
		{reportCommand, []string{"-top"}},
		{stdoutOnly(topCommand), nil},
		{reportCommand, []string{"-perfetto"}},
	} {
		for _, dir := range []string{missing, old} {
			code, stdout, stderr := runCmd(tc.cmd, append(tc.args, dir)...)
			if code != 1 || stdout != "" {
				t.Errorf("%v %s: exit %d, stdout %q", tc.args, dir, code, stdout)
			}
			if !strings.Contains(stderr, tracez.FileName) {
				t.Errorf("%v %s: stderr %q does not name %s", tc.args, dir, stderr, tracez.FileName)
			}
		}
	}
}
