package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/cli"
)

// runAnalytical runs `pcs analytical args...` in-process and returns
// its exit code, stdout and stderr. No environment prefix is set, so
// PCS_* variables cannot leak into the test.
func runAnalytical(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	app := &cli.App{Name: "pcs", Output: &stderr}
	app.Register(analyticalCommand(&stdout))
	code := app.Run(append([]string{"analytical"}, args...))
	return code, stdout.String(), stderr.String()
}

// TestAnalyticalGolden regenerates the committed analytical golden in
// process: the default mechanism selection must print the paper's
// tables byte for byte.
func TestAnalyticalGolden(t *testing.T) {
	want, err := os.ReadFile("../../analytical_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	code, got, stderr := runAnalytical("-fig2", "-fig3a", "-fig3b", "-fig3c", "-fig3d", "-area", "-vdd")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range wantLines {
		if i >= len(gotLines) || gotLines[i] != wantLines[i] {
			g := "<missing>"
			if i < len(gotLines) {
				g = gotLines[i]
			}
			t.Fatalf("output diverges from analytical_output.txt at line %d:\n got: %q\nwant: %q", i+1, g, wantLines[i])
		}
	}
	t.Fatalf("output has %d extra lines after analytical_output.txt", len(gotLines)-len(wantLines))
}

// TestAnalyticalUnknownMechanism checks a typoed -mechanisms selection
// fails before any table prints.
func TestAnalyticalUnknownMechanism(t *testing.T) {
	code, stdout, stderr := runAnalytical("-mechanisms", "nosuch")
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if stdout != "" {
		t.Errorf("printed %d bytes before failing:\n%s", len(stdout), stdout)
	}
	if !strings.Contains(stderr, `unknown mechanism "nosuch"`) {
		t.Errorf("stderr %q does not name the mechanism", stderr)
	}
}
