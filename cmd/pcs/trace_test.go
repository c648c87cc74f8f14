package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

// runTrace runs `pcs trace args...` in-process and returns its exit
// code, stdout and stderr.
func runTrace(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	app := &cli.App{Name: "pcs", Output: &stderr}
	app.Register(traceCommand(&stdout))
	code := app.Run(append([]string{"trace"}, args...))
	return code, stdout.String(), stderr.String()
}

// TestTraceReplayNames records a short trace and replays it: -mode and
// -config resolve through the same name parsers as specs and campaign
// jobs (any case), and an unknown mode fails before simulating.
func TestTraceReplayNames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mcf.trc")
	code, out, stderr := runTrace("-record", "-bench", "mcf.s", "-n", "60000", "-o", path)
	if code != 0 {
		t.Fatalf("record: exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(out, "recorded 60000 instructions of mcf.s") {
		t.Errorf("record printed %q", out)
	}

	code, out, stderr = runTrace("-replay", path, "-mode", "DPCS", "-config", "b", "-warmup", "10000")
	if code != 0 {
		t.Fatalf("replay -mode DPCS -config b: exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(out, "B/"+path+"/DPCS: ") {
		t.Errorf("replay printed %q", out)
	}

	code, out, stderr = runTrace("-replay", path, "-mode", "turbo")
	if code != 1 {
		t.Errorf("replay -mode turbo: exit %d, want 1", code)
	}
	if out != "" || !strings.Contains(stderr, `unknown mode "turbo"`) {
		t.Errorf("replay -mode turbo: stdout %q, stderr %q", out, stderr)
	}
}
