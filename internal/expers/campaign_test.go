package expers

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultmodel"
	"repro/internal/runner"
	"repro/internal/sram"
)

func TestCampaignRegistryKinds(t *testing.T) {
	reg := NewCampaignRegistry()
	want := []string{"ablation", "cells", "cpusim", "fig4-cell", "leakage", "mechminvdd", "minvdd", "multicore", "vddlevels"}
	got := reg.Kinds()
	if len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", got, want)
		}
	}
}

func mustSpec(t *testing.T, kind, name string, params any) runner.Spec {
	t.Helper()
	raw, err := json.Marshal(params)
	if err != nil {
		t.Fatal(err)
	}
	return runner.Spec{Kind: kind, Name: name, Params: raw}
}

// TestMinVDDKindMatchesDirect checks the campaign kind agrees with a
// direct analytical evaluation.
func TestMinVDDKindMatchesDirect(t *testing.T) {
	reg := NewCampaignRegistry()
	fn, _ := reg.Lookup("minvdd")
	raw, _ := json.Marshal(MinVDDParams{SizeBytes: 64 << 10, Ways: 4, BlockBytes: 64})
	out, err := fn(context.Background(), 1, raw)
	if err != nil {
		t.Fatal(err)
	}
	got := out.(MinVDDOutput)

	m, err := faultmodel.New(faultmodel.Geometry{
		Sets: (64 << 10) / (64 * 4), Ways: 4, BlockBits: 64 * 8,
	}, sram.NewWangCalhounBER())
	if err != nil {
		t.Fatal(err)
	}
	want, ok := m.MinVDDForYield(0.99, 0.30, 1.00)
	if !ok || !got.OK {
		t.Fatalf("ok: kind=%v direct=%v", got.OK, ok)
	}
	if got.MinVDD != want {
		t.Fatalf("kind min-VDD %v != direct %v", got.MinVDD, want)
	}
}

// TestParamValidation checks unknown fields and missing requirements are
// rejected rather than silently defaulted.
func TestParamValidation(t *testing.T) {
	reg := NewCampaignRegistry()
	cases := []struct {
		kind   string
		params string
	}{
		{"cpusim", `{"bench":"bzip2.s","sim_instr":1000,"typo_field":1}`},
		{"cpusim", `{"bench":"no-such-bench","sim_instr":1000}`},
		{"cpusim", `{"bench":"bzip2.s"}`}, // sim_instr missing
		{"cpusim", `{"bench":"bzip2.s","sim_instr":1,"config":"Z"}`},
		{"cpusim", `{"bench":"bzip2.s","sim_instr":1,"mode":"turbo"}`},
		{"multicore", `{"bench":"gobmk.s","cores":0,"instr_per_core":100}`},
		{"minvdd", `{"size_bytes":0,"ways":4,"block_bytes":64}`},
		{"vddlevels", `{"levels":0}`},
	}
	for _, c := range cases {
		fn, ok := reg.Lookup(c.kind)
		if !ok {
			t.Fatalf("kind %q missing", c.kind)
		}
		if _, err := fn(context.Background(), 1, json.RawMessage(c.params)); err == nil {
			t.Errorf("%s params %s: no error", c.kind, c.params)
		}
	}
}

// TestParamsRejectTrailingData checks that every registered kind
// refuses a params document with anything but white space after its
// JSON value, before computing anything, and that trailing white space
// changes nothing.
func TestParamsRejectTrailingData(t *testing.T) {
	reg := NewCampaignRegistry()
	for _, kind := range reg.Kinds() {
		fn, _ := reg.Lookup(kind)
		for _, params := range []string{`{} {"ways":"junk"}`, `{}]`, `{} garbage`, `{}{}`, "{}\n\u00a0"} {
			_, err := fn(context.Background(), 1, json.RawMessage(params))
			if err == nil || !strings.Contains(err.Error(), "trailing data") {
				t.Errorf("%s params %q: error %v, want trailing data refused", kind, params, err)
			}
		}
	}
	fn, _ := reg.Lookup("minvdd")
	params := `{"size_bytes":65536,"ways":4,"block_bytes":64}`
	want, err := fn(context.Background(), 1, json.RawMessage(params))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fn(context.Background(), 1, json.RawMessage(params+" \t\r\n"))
	if err != nil || got != want {
		t.Errorf("minvdd with trailing white space = (%v, %v), want (%v, nil)", got, err, want)
	}
}

// smallSimParams is a fast cpusim job for pool tests.
func smallSimParams(mode string, seed uint64) CPUSimParams {
	return CPUSimParams{
		Config: "A", Mode: mode, Bench: "bzip2.s",
		WarmupInstr: 10_000, SimInstr: 30_000, Seed: seed,
	}
}

// TestSimCampaignParallelMatchesSerial runs a real simulation sweep
// through the pool at 1 and 8 workers and requires byte-identical
// artifact records — the subsystem's core determinism guarantee on the
// actual simulator, not a toy kind.
func TestSimCampaignParallelMatchesSerial(t *testing.T) {
	reg := NewCampaignRegistry()
	camp := runner.Campaign{Name: "sim-det", Seed: 99}
	for i, mode := range []string{"baseline", "SPCS", "DPCS"} {
		// Seed 0: each job uses its runner-derived seed.
		p := smallSimParams(mode, 0)
		camp.Jobs = append(camp.Jobs, mustSpec(t, "cpusim", fmt.Sprintf("j%d", i), p))
	}
	for _, w := range []int{1, 2, 4, 8} {
		camp.Jobs = append(camp.Jobs, mustSpec(t, "minvdd", fmt.Sprintf("w%d", w), MinVDDParams{
			SizeBytes: 32 << 10, Ways: w, BlockBytes: 64,
		}))
	}
	run := func(workers int) []byte {
		dir := filepath.Join(t.TempDir(), "run")
		res, err := runner.Run(context.Background(), reg, camp, runner.Options{
			Workers: workers, ArtifactDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed > 0 {
			t.Fatalf("workers=%d: %d jobs failed: %+v", workers, res.Failed, res.Results)
		}
		b, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	parallel := run(8)
	if string(serial) != string(parallel) {
		t.Fatalf("parallel simulation records differ from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}

// TestSimCampaignUnderRace is the short-mode campaign that puts the
// worker pool plus real simulator construction under the race detector
// in tier-1 (go test -race ./...).
func TestSimCampaignUnderRace(t *testing.T) {
	reg := NewCampaignRegistry()
	camp := runner.Campaign{Name: "race", Seed: 5}
	for i := 0; i < 6; i++ {
		mode := []string{"baseline", "SPCS", "DPCS"}[i%3]
		camp.Jobs = append(camp.Jobs, mustSpec(t, "cpusim", fmt.Sprintf("r%d", i), smallSimParams(mode, 0)))
	}
	res, err := runner.Run(context.Background(), reg, camp, runner.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 6 {
		t.Fatalf("done=%d failed=%d cancelled=%d", res.Done, res.Failed, res.Cancelled)
	}
	for _, r := range res.Results {
		out := r.Output.(CPUSimOutput)
		if out.Cycles == 0 || out.TotalCacheEnergyJ <= 0 {
			t.Fatalf("job %d implausible output %+v", r.Index, out)
		}
	}
}

// TestMulticoreKind runs one small multicore job through its kind.
func TestMulticoreKind(t *testing.T) {
	if testing.Short() {
		t.Skip("multicore kind is covered by tier-1 full mode")
	}
	reg := NewCampaignRegistry()
	fn, _ := reg.Lookup("multicore")
	raw, _ := json.Marshal(MulticoreParams{
		Config: "A", Mode: "SPCS", Cores: 2, Bench: "gobmk.s",
		WarmupInstr: 5_000, InstrPerCore: 20_000,
		SharedBytes: 1 << 20, SharedFrac: 0.1,
	})
	out, err := fn(context.Background(), 3, raw)
	if err != nil {
		t.Fatal(err)
	}
	mo := out.(MulticoreOutput)
	if mo.Cores != 2 || mo.GlobalCycles == 0 || mo.TotalCacheEnergyJ <= 0 {
		t.Fatalf("output %+v", mo)
	}
}
