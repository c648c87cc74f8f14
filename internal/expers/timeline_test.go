package expers

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/obs/tracez"
	"repro/internal/trace"
)

func trans(cache string, cycle uint64, from, to int, fromV, toV float64) Transition {
	return Transition{Cache: cache, Cycle: cycle, From: from, To: to, FromVDD: fromV, ToVDD: toV}
}

func TestVDDResidencies(t *testing.T) {
	// Cache "p": level 3 for [0,100), 2 for [100,400), 3 for [400,1000).
	run := PolicyRun{EndCycle: 1000, Transitions: []Transition{
		trans("p", 100, 3, 2, 1.0, 0.7),
		trans("p", 400, 2, 3, 0.7, 1.0),
	}}
	res := VDDResidencies(run)
	if len(res) != 2 {
		t.Fatalf("got %d residencies: %+v", len(res), res)
	}
	// Descending level order.
	if res[0].Level != 3 || res[0].Cycles != 100+600 || res[0].VDD != 1.0 {
		t.Fatalf("level-3 residency %+v", res[0])
	}
	if res[1].Level != 2 || res[1].Cycles != 300 || res[1].VDD != 0.7 {
		t.Fatalf("level-2 residency %+v", res[1])
	}
	if got := res[0].Frac + res[1].Frac; got < 0.999 || got > 1.001 {
		t.Fatalf("fractions sum to %g", got)
	}

	// Over the window [200, 500) only the part of each level inside it
	// counts: level 2 for [200,400), level 3 for [400,500).
	run.StartCycle, run.EndCycle = 200, 500
	res = VDDResidencies(run)
	if len(res) != 2 || res[0].Cycles != 100 || res[1].Cycles != 200 || res[1].Frac*3 != 2 {
		t.Fatalf("windowed residencies %+v", res)
	}
}

func TestVDDResidenciesMultiCache(t *testing.T) {
	run := PolicyRun{EndCycle: 1000, Transitions: []Transition{
		trans("l2", 500, 3, 2, 1.0, 0.8),
		trans("l1", 200, 3, 1, 1.0, 0.6),
	}}
	res := VDDResidencies(run)
	if len(res) != 4 {
		t.Fatalf("got %d residencies: %+v", len(res), res)
	}
	if res[0].Cache != "l1" || res[2].Cache != "l2" {
		t.Fatalf("cache order wrong: %+v", res)
	}
	var sum uint64
	for _, r := range res[:2] {
		sum += r.Cycles
	}
	if sum != 1000 {
		t.Fatalf("l1 cycles sum %d, want 1000", sum)
	}
}

func TestVDDTrajectoryTableTruncates(t *testing.T) {
	run := PolicyRun{Job: "A/p/DPCS", ClockHz: 1e9}
	for i := uint64(1); i <= 10; i++ {
		run.Transitions = append(run.Transitions, trans("p", i*100, 3, 2, 1.0, 0.7))
	}
	tab := VDDTrajectoryTable(run, 4)
	// 4 shown + 1 ellipsis row.
	if len(tab.Rows) != 5 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	if !strings.Contains(tab.Rows[4][0], "6 more") {
		t.Fatalf("ellipsis row %v", tab.Rows[4])
	}
	// 100 cycles at 1 GHz = 1e-4 ms.
	if tab.Rows[0][0] != "0.000" {
		t.Fatalf("time cell %q", tab.Rows[0][0])
	}
	if tab.Rows[0][3] != "3->2" {
		t.Fatalf("level cell %q", tab.Rows[0][3])
	}
	if !strings.HasPrefix(tab.Title, "A/p/DPCS: ") {
		t.Fatalf("title %q does not name the job", tab.Title)
	}
}

func TestVDDResidencyTable(t *testing.T) {
	run := PolicyRun{EndCycle: 200, Transitions: []Transition{trans("p", 100, 3, 2, 1.0, 0.7)}}
	tab := VDDResidencyTable(run)
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	if tab.Rows[0][4] != "50.0" || tab.Rows[1][4] != "50.0" {
		t.Fatalf("residency cells %v", tab.Rows)
	}
}

// TestPolicyRunsFromSpans runs one traced DPCS simulation under a job
// span and checks PolicyRuns reads it back: the job's name, every
// transition, the measured window, and a residency per cache that
// covers the window exactly.
func TestPolicyRunsFromSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := tracez.New(&buf)
	ctx, job := tr.Start(context.Background(), "job")
	job.SetInt("job", 0)
	job.SetStr("name", "A/bzip2.s/DPCS")
	w, _ := trace.ByName("bzip2.s")
	res, err := cpusim.RunContext(ctx, cpusim.ConfigA(), core.DPCS, w,
		cpusim.RunOptions{WarmupInstr: 50_000, SimInstr: 400_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	job.End()
	spans, err := tracez.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := PolicyRuns(spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("%d policy runs, want 1", len(runs))
	}
	run := runs[0]
	if run.Job != "A/bzip2.s/DPCS" || run.Decisions == 0 || run.ClockHz != 2e9 ||
		run.EndCycle-run.StartCycle != res.Cycles {
		t.Fatalf("run %+v for a result of %d cycles", run, res.Cycles)
	}
	perCache := map[string]uint64{}
	for _, r := range VDDResidencies(run) {
		perCache[r.Cache] += r.Cycles
	}
	for _, cr := range []cpusim.CacheResult{res.L1I, res.L1D, res.L2} {
		if perCache[cr.Name] != res.Cycles {
			t.Errorf("%s residency covers %d cycles, want %d", cr.Name, perCache[cr.Name], res.Cycles)
		}
	}
}
