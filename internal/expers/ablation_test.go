package expers

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/runner"
	"repro/internal/trace"
)

func TestAblationVariantsCoverEverything(t *testing.T) {
	vs := AblationVariants()
	if len(vs) != 6 {
		t.Fatalf("%d variants", len(vs))
	}
	if vs[0].Name != "full policy" || vs[0].Flags != (core.AblationFlags{}) {
		t.Error("first variant must be the undisabled policy")
	}
	last := vs[len(vs)-1].Flags
	if !(last.NoHoldLatch && last.NoBadLevelMemory &&
		last.NoRefillClassification && last.NoSkipReset) {
		t.Error("bare variant does not disable everything")
	}
}

// runStudy runs a study's jobs as one campaign and returns its results.
func runStudy(t *testing.T, st Study, workers int) []runner.JobResult {
	t.Helper()
	res, err := runner.Run(context.Background(), NewCampaignRegistry(),
		runner.Campaign{Name: st.Name, Seed: 1, Jobs: st.Jobs}, runner.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return res.Results
}

// TestAblationRuns runs the ablation study through the campaign runner
// and checks its rows against a serial cpusim.Run loop over the same
// cells, kept inline as the reference: a baseline and one DPCS run per
// variant on Config A with the variant's Ablate flags.
func TestAblationRuns(t *testing.T) {
	opts := cpusim.RunOptions{WarmupInstr: 50_000, SimInstr: 200_000, Seed: 1}
	st := AblationStudy([]string{"hmmer.s"}, opts)
	rows, err := AblationRows(runStudy(t, st, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AblationVariants()) {
		t.Fatalf("%d rows", len(rows))
	}
	w, _ := trace.ByName("hmmer.s")
	base, err := cpusim.Run(cpusim.ConfigA(), core.Baseline, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range AblationVariants() {
		cfg := cpusim.ConfigA()
		cfg.Ablate = v.Flags
		r, err := cpusim.Run(cfg, core.DPCS, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := AblationRow{
			Variant:   v.Name,
			Workload:  "hmmer.s",
			SavingPct: (1 - r.TotalCacheEnergyJ/base.TotalCacheEnergyJ) * 100,
			OverhdPct: (float64(r.Cycles)/float64(base.Cycles) - 1) * 100,
			L2Trans:   r.L2.Transitions,
		}
		if rows[i] != want {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], want)
		}
		if rows[i].SavingPct < 20 || rows[i].SavingPct > 80 {
			t.Errorf("%s saving %v implausible", rows[i].Variant, rows[i].SavingPct)
		}
	}
}

// TestAblationUnknownWorkload checks an unknown workload fails the
// study: its cells fail, and the table refuses the failed results.
func TestAblationUnknownWorkload(t *testing.T) {
	st := AblationStudy([]string{"nope"}, cpusim.RunOptions{WarmupInstr: 1_000, SimInstr: 2_000, Seed: 1})
	_, err := st.Table(runStudy(t, st, 1))
	if err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Errorf("unknown workload: table error %v, want one naming the unknown benchmark", err)
	}
}

// TestSimStudiesRunFig4Cells pins that the simulation studies write
// every cell as a "fig4-cell" job (the one single-core kind), and that
// the defaults give the ablation its 14 cells.
func TestSimStudiesRunFig4Cells(t *testing.T) {
	for _, name := range []string{"dpcs", "ablate"} {
		st, err := StudyByName(name, "bzip2.s", 40_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range st.Jobs {
			if j.Kind != "fig4-cell" {
				t.Errorf("%s job %q is kind %q, want fig4-cell", name, j.Name, j.Kind)
			}
		}
	}
	st := AblationStudy(nil, cpusim.RunOptions{SimInstr: 1})
	if got, want := len(st.Jobs), 2*(1+len(AblationVariants())); got != want {
		t.Errorf("default ablation study has %d jobs, want %d", got, want)
	}
}
