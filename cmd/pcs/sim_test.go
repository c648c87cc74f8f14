package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/expers"
	"repro/internal/obs/tracez"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/version"
)

// benchArgs is a small one-workload Config A run of pcs sim.
var benchArgs = []string{"-q", "-config", "A", "-bench", "bzip2.s", "-instr", "300000", "-warmup", "30000", "-workers", "2"}

// TestSimBenchPrintsDirectRun checks `pcs sim -bench` runs the grid
// narrowed to one workload and prints, mode by mode, the lines a direct
// cpusim.Run of each cell gives.
func TestSimBenchPrintsDirectRun(t *testing.T) {
	code, stdout, stderr := runCmd(simCommand, benchArgs...)
	if code != 0 {
		t.Fatalf("sim -bench: exit %d: %s", code, stderr)
	}
	w, _ := trace.ByName("bzip2.s")
	var want bytes.Buffer
	for _, mode := range []core.Mode{core.Baseline, core.SPCS, core.DPCS} {
		r, err := cpusim.Run(cpusim.ConfigA(), mode, w, cpusim.RunOptions{WarmupInstr: 30_000, SimInstr: 300_000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		printCell(&want, r)
	}
	if stdout != want.String() {
		t.Errorf("sim -bench printed:\n%s\nwant the direct runs' lines:\n%s", stdout, want.String())
	}
	if lines := strings.Split(strings.TrimSpace(stdout), "\n"); len(lines) != 12 ||
		!strings.HasPrefix(lines[0], "A/bzip2.s/baseline: IPC=") || !strings.HasPrefix(lines[1], "  L1I-A  acc=") {
		t.Errorf("sim -bench output is not 3 cells of 4 lines:\n%s", stdout)
	}
}

// dpcsCycles matches the DPCS cell's summary line in pcs sim -bench
// output.
var dpcsCycles = regexp.MustCompile(`(?m)^A/bzip2\.s/DPCS: .* cycles=(\d+) `)

// TestSimBenchRunsDir checks `pcs sim -bench -runs` names its run
// directory and its cell summary on stderr, and writes a run directory
// that `pcs verify` accepts and `pcs report -timeline` renders: the
// DPCS cell's trajectory, and a residency per cache that sums to the
// cell's measured cycles.
func TestSimBenchRunsDir(t *testing.T) {
	root := t.TempDir()
	code, stdout, stderr := runCmd(simCommand, append(benchArgs, "-runs", root)...)
	if code != 0 {
		t.Fatalf("sim -bench -runs: exit %d: %s", code, stderr)
	}
	m := dpcsCycles.FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("no DPCS cell in:\n%s", stdout)
	}
	cycles, _ := strconv.ParseUint(m[1], 10, 64)
	dirs, _ := filepath.Glob(filepath.Join(root, "fig4-A", "*"))
	if len(dirs) != 1 {
		t.Fatalf("run directories %v, want one under fig4-A", dirs)
	}
	if want := "pcs sim: config A: recording campaign in " + dirs[0] + "\n" +
		"pcs sim: 3 cells: 0 cached, 3 computed, 0 failed\n"; stderr != want {
		t.Errorf("stderr %q, want %q", stderr, want)
	}
	if code, _, stderr := runVerify(dirs[0]); code != 0 {
		t.Fatalf("verify: exit %d: %s", code, stderr)
	}

	code, out, stderr := runCmd(stdoutOnly(reportCommand), "-timeline", dirs[0])
	if code != 0 {
		t.Fatalf("report -timeline: exit %d: %s", code, stderr)
	}
	if !strings.Contains(out, "== A/bzip2.s/DPCS: DPCS VDD trajectory") || strings.Contains(out, "SPCS:") {
		t.Errorf("report -timeline does not render just the DPCS cell:\n%s", out)
	}
	_, residency, ok := strings.Cut(out, "DPCS VDD residency (fraction of the measured window at each level) ==\n")
	if !ok {
		t.Fatalf("no residency table:\n%s", out)
	}
	sums := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(residency), "\n")[2:] {
		f := strings.Fields(line)
		n, err := strconv.ParseUint(f[3], 10, 64)
		if err != nil {
			t.Fatalf("residency row %q: %v", line, err)
		}
		sums[f[0]] += n
	}
	for _, c := range []string{"L1I-A", "L1D-A", "L2-A"} {
		if sums[c] != cycles {
			t.Errorf("%s residency sums to %d cycles, the DPCS cell ran %d", c, sums[c], cycles)
		}
	}
	noPolicyFiles(t, root)
}

// noPolicyFiles fails if any file under root is a per-job policy
// timeline (policy-*.jsonl); spans.jsonl is the only record.
func noPolicyFiles(t *testing.T, root string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(d.Name(), "policy-") {
			t.Errorf("%s written", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSweepRunsDir checks a DPCS sweep with a run directory names it
// and its cell summary on stderr, records its decisions as spans that
// `pcs report -timeline` renders, and writes no policy file.
func TestSweepRunsDir(t *testing.T) {
	root := t.TempDir()
	code, stdout, stderr := runCmd(sweepCommand, "-dpcs", "-instr", "200000", "-workers", "2", "-runs", root)
	if code != 0 || !strings.Contains(stdout, "DPCS") {
		t.Fatalf("sweep -dpcs: exit %d, stdout %q: %s", code, stdout, stderr)
	}
	dirs, _ := filepath.Glob(filepath.Join(root, "dpcs", "*"))
	if len(dirs) != 1 {
		t.Fatalf("run directories %v, want one under dpcs", dirs)
	}
	if want := "pcs sweep: dpcs: records archived in " + dirs[0] + "\n" +
		"pcs sweep: 10 cells: 0 cached, 10 computed, 0 failed\n"; stderr != want {
		t.Errorf("stderr %q, want %q", stderr, want)
	}
	code, out, stderr := runCmd(stdoutOnly(reportCommand), "-timeline", dirs[0])
	if code != 0 || !strings.Contains(out, "DPCS VDD residency") {
		t.Fatalf("report -timeline: exit %d: %s%s", code, out, stderr)
	}
	noPolicyFiles(t, root)
}

// TestRemovedFlags checks the flags of the old policy-timeline files
// are unknown.
func TestRemovedFlags(t *testing.T) {
	for _, tc := range []struct {
		cmd  func(stdout, stderr io.Writer) *cli.Command
		args []string
	}{
		{simCommand, []string{"-timeline", "tl.jsonl", "-bench", "mcf.s"}},
		{sweepCommand, []string{"-timeline", "-runs", "runs"}},
		{stdoutOnly(reportCommand), []string{"-clock", "3", "-timeline", "runs"}},
	} {
		code, stdout, stderr := runCmd(tc.cmd, tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: "+tc.args[0]) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", tc.args, code, stdout, stderr)
		}
	}
}

// TestReportTimelineErrors checks `pcs report -timeline` fails naming
// the cause on a missing run directory and on one whose spans record
// no DPCS decision.
func TestReportTimelineErrors(t *testing.T) {
	analytical := filepath.Join(t.TempDir(), "run")
	c := runner.Campaign{Name: "minvdd", Seed: 1, Jobs: []runner.Spec{
		{Kind: "minvdd", Params: json.RawMessage(`{"size_bytes":65536,"ways":4,"block_bytes":64}`)},
	}}
	if _, err := runner.Run(context.Background(), expers.NewCampaignRegistry(), c,
		runner.Options{ArtifactDir: analytical, CodeVersion: version.String()}); err != nil {
		t.Fatal(err)
	}
	for dir, cause := range map[string]string{
		filepath.Join(t.TempDir(), "nosuch"): tracez.FileName + ": no such file",
		analytical:                           "no dpcs.decision instants",
	} {
		code, stdout, stderr := runCmd(stdoutOnly(reportCommand), "-timeline", dir)
		if code != 1 || stdout != "" || !strings.Contains(stderr, cause) {
			t.Errorf("report -timeline %s: exit %d, stdout %q, stderr %q; want %q", dir, code, stdout, stderr, cause)
		}
	}
}
