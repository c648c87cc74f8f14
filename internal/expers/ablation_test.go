package expers

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpusim"
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

func TestAblationRuns(t *testing.T) {
	opts := cpusim.RunOptions{WarmupInstr: 50_000, SimInstr: 200_000, Seed: 1}
	rows, tbl, err := Ablation([]string{"hmmer.s"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tbl == nil || len(rows) != len(AblationVariants()) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.SavingPct < 20 || r.SavingPct > 80 {
			t.Errorf("%s saving %v implausible", r.Variant, r.SavingPct)
		}
	}
}

func TestAblationUnknownWorkload(t *testing.T) {
	if _, _, err := Ablation([]string{"nope"}, cpusim.RunOptions{WarmupInstr: 1_000_000, SimInstr: 2_000_000, Seed: 1}); err == nil {
		t.Error("unknown workload accepted")
	}
}
