package cpusim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// fastOpts keeps unit tests quick while exercising the full pipeline.
func fastOpts() RunOptions {
	return RunOptions{WarmupInstr: 100_000, SimInstr: 400_000, Seed: 1}
}

func smallWorkload() trace.Workload {
	return trace.Workload{
		Name: "unit", CodeBytes: 16 * 1024, JumpProb: 0.02, ZipfS: 1.2,
		Phases: []trace.Phase{{
			Instructions: 1 << 40, WorkingSetBytes: 128 * 1024,
			Mix: trace.PatternMix{Zipf: 0.6, Seq: 0.2}, WriteFrac: 0.3, MemFrac: 0.4,
		}},
	}
}

func TestConfigsMatchTable2(t *testing.T) {
	a := ConfigA()
	if a.ClockHz != 2e9 || a.L1D.Org.SizeBytes != 64<<10 || a.L1D.Org.Assoc != 4 ||
		a.L2.Org.SizeBytes != 2<<20 || a.L2.Org.Assoc != 8 {
		t.Errorf("Config A mismatch: %+v", a)
	}
	if a.L1D.HitCycles != 2 || a.L2.HitCycles != 4 {
		t.Error("Config A latencies")
	}
	if a.L1D.Interval != 100_000 || a.L2.Interval != 10_000 {
		t.Error("Config A DPCS intervals")
	}
	b := ConfigB()
	if b.ClockHz != 3e9 || b.L1D.Org.SizeBytes != 256<<10 || b.L1D.Org.Assoc != 8 ||
		b.L2.Org.SizeBytes != 8<<20 || b.L2.Org.Assoc != 16 {
		t.Errorf("Config B mismatch: %+v", b)
	}
	if b.L1D.HitCycles != 3 || b.L2.HitCycles != 8 {
		t.Error("Config B latencies")
	}
}

func TestBaselineRun(t *testing.T) {
	r, err := Run(ConfigA(), core.Baseline, smallWorkload(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions != 400_000 {
		t.Errorf("instructions %d", r.Instructions)
	}
	if r.Cycles < r.Instructions {
		t.Errorf("cycles %d below instruction count", r.Cycles)
	}
	if r.IPC <= 0 || r.IPC > 1 {
		t.Errorf("IPC %v", r.IPC)
	}
	// Every instruction fetches: L1I accesses == instructions.
	if r.L1I.Stats.Accesses != r.Instructions {
		t.Errorf("L1I accesses %d", r.L1I.Stats.Accesses)
	}
	// ~40% of instructions access data.
	frac := float64(r.L1D.Stats.Accesses) / float64(r.Instructions)
	if frac < 0.35 || frac > 0.45 {
		t.Errorf("L1D access fraction %v", frac)
	}
	if r.TotalCacheEnergyJ <= 0 {
		t.Error("no energy accounted")
	}
	if r.L2.Energy.StaticJ <= r.L1D.Energy.StaticJ {
		t.Error("L2 static energy should dominate L1's")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(ConfigA(), core.DPCS, smallWorkload(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ConfigA(), core.DPCS, smallWorkload(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.TotalCacheEnergyJ != b.TotalCacheEnergyJ {
		t.Fatalf("same-seed runs differ: %v/%v vs %v/%v",
			a.Cycles, a.TotalCacheEnergyJ, b.Cycles, b.TotalCacheEnergyJ)
	}
}

func TestSPCSSavesEnergyWithSmallOverhead(t *testing.T) {
	w := smallWorkload()
	base, err := Run(ConfigA(), core.Baseline, w, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	spcs, err := Run(ConfigA(), core.SPCS, w, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	saving := 1 - spcs.TotalCacheEnergyJ/base.TotalCacheEnergyJ
	if saving < 0.40 || saving > 0.70 {
		t.Errorf("SPCS saving %v outside the paper's ballpark (~55%%)", saving)
	}
	overhead := float64(spcs.Cycles)/float64(base.Cycles) - 1
	if overhead > 0.03 {
		t.Errorf("SPCS overhead %v above the paper's ~2.3%% worst case", overhead)
	}
	if overhead < -0.005 {
		t.Errorf("SPCS faster than baseline by %v — implausible", -overhead)
	}
	// SPCS performs exactly one transition per cache, before measurement.
	if spcs.L1D.Transitions != 0 || spcs.L2.Transitions != 0 {
		t.Errorf("SPCS transitions during measurement: %d/%d",
			spcs.L1D.Transitions, spcs.L2.Transitions)
	}
}

func TestDPCSSavesAtLeastAsMuchAsSPCSOnIdleCache(t *testing.T) {
	// A small working set leaves the caches over-provisioned — exactly
	// the situation DPCS exploits (paper Sec. 3.3).
	w := smallWorkload()
	opts := RunOptions{WarmupInstr: 200_000, SimInstr: 1_000_000, Seed: 1}
	base, err := Run(ConfigA(), core.Baseline, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	spcs, err := Run(ConfigA(), core.SPCS, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	dpcs, err := Run(ConfigA(), core.DPCS, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	sS := 1 - spcs.TotalCacheEnergyJ/base.TotalCacheEnergyJ
	sD := 1 - dpcs.TotalCacheEnergyJ/base.TotalCacheEnergyJ
	if sD < sS {
		t.Errorf("DPCS saving %v below SPCS %v on an over-provisioned cache", sD, sS)
	}
}

func TestDPCSUsesLowerVoltage(t *testing.T) {
	w := smallWorkload()
	opts := RunOptions{WarmupInstr: 200_000, SimInstr: 1_000_000, Seed: 1}
	dpcs, err := Run(ConfigA(), core.DPCS, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The L2 must spend some time at its lowest level for this workload.
	if dpcs.L2.TimeAtLevelCycles[0] == 0 {
		t.Errorf("DPCS L2 never reached VDD1: %v", dpcs.L2.TimeAtLevelCycles)
	}
	if len(dpcs.L2.LevelVolts) != 3 {
		t.Errorf("level count %d", len(dpcs.L2.LevelVolts))
	}
}

func TestMissesCostCycles(t *testing.T) {
	// A memory-hostile workload must run at far lower IPC than a
	// cache-resident one.
	friendly := smallWorkload()
	hostile := trace.Workload{
		Name: "hostile", CodeBytes: 16 * 1024, JumpProb: 0.02, ZipfS: 0.1,
		Phases: []trace.Phase{{
			Instructions: 1 << 40, WorkingSetBytes: 32 << 20,
			Mix: trace.PatternMix{Chase: 0.9}, WriteFrac: 0.2, MemFrac: 0.5,
		}},
	}
	rf, err := Run(ConfigA(), core.Baseline, friendly, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Run(ConfigA(), core.Baseline, hostile, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rh.IPC >= rf.IPC/2 {
		t.Errorf("hostile IPC %v not far below friendly %v", rh.IPC, rf.IPC)
	}
}

func TestWritebacksReachL2(t *testing.T) {
	w := smallWorkload()
	r, err := Run(ConfigA(), core.Baseline, w, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// With 30% writes and an L1-overflowing working set, L1D evictions
	// must produce L2 write traffic beyond demand misses.
	demand := r.L1I.Stats.Misses + r.L1D.Stats.Misses
	if r.L2.Stats.Accesses <= demand {
		t.Errorf("L2 accesses %d do not include writebacks (demand %d)",
			r.L2.Stats.Accesses, demand)
	}
	if r.L2.Stats.Writes == 0 {
		t.Error("no L2 writes")
	}
}

func TestResultString(t *testing.T) {
	r, err := Run(ConfigA(), core.Baseline, smallWorkload(),
		RunOptions{WarmupInstr: 1000, SimInstr: 10_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestBlockAlign(t *testing.T) {
	if blockAlign(0x12345, 64) != 0x12340 {
		t.Errorf("blockAlign: %#x", blockAlign(0x12345, 64))
	}
	if blockAlign(0x1000, 64) != 0x1000 {
		t.Error("aligned address changed")
	}
}

func TestSeedChangesFaultMapNotOutcomeMuch(t *testing.T) {
	// The paper found < 1% variation across random fault maps; verify
	// the qualitative claim: energy varies little across seeds.
	w := smallWorkload()
	opts := fastOpts()
	r1, err := Run(ConfigA(), core.SPCS, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed = 99
	r2, err := Run(ConfigA(), core.SPCS, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	rel := (r2.TotalCacheEnergyJ - r1.TotalCacheEnergyJ) / r1.TotalCacheEnergyJ
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.05 {
		t.Errorf("energy varies %v across fault-map seeds", rel)
	}
}
