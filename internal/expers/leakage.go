package expers

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faultmap"
	"repro/internal/leakage"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
)

// LeakageRow is one technique's outcome in the leakage comparison.
type LeakageRow struct {
	Technique      string
	LeakEnergyRel  float64 // data-array leakage energy vs baseline
	ExtraCyclesPct float64 // execution overhead vs baseline
	LosesState     bool
	ToleratesFault bool
}

// LeakageComparison runs the Sec.-2 related-work techniques and the
// proposed SPCS point on one L1 workload and reports data-array leakage
// energy and performance overhead, normalised to a conventional cache at
// nominal VDD. It quantifies the paper's positioning: drowsy saves
// leakage but retains data at a fault-prone voltage it cannot tolerate;
// decay saves leakage but destroys state and adds misses; SPCS gets
// comparable-or-better leakage with a fault story and bounded overhead.
func LeakageComparison(instructions uint64, seed uint64) ([]LeakageRow, *report.Table, error) {
	return leakageComparison(context.Background(), nil, instructions, seed)
}

// ctxCheckMask throttles the leakage drive loop's cancellation polling:
// ctx.Err() is consulted once every 4096 instructions.
const ctxCheckMask = 4096 - 1

// leakageComparison is LeakageComparison with cancellation and an
// optional per-worker arena. Each technique's drive loop polls ctx and
// abandons the comparison with ctx's error once it is cancelled. The
// four standalone caches (baseline, drowsy, decay, SPCS are all live at
// once, hence the slots) and the fault map come from the arena's pools
// when one is supplied, and the output is byte-identical either way.
func leakageComparison(ctx context.Context, arena *CellArena, instructions uint64, seed uint64) ([]LeakageRow, *report.Table, error) {
	org := L1ConfigA()
	tech := device.Tech45SOI()
	// The scenario every leakage technique targets: an over-provisioned
	// cache (32 KB hot working set in the 64 KB L1).
	w := trace.Workload{
		Name: "leakcmp", CodeBytes: 16 << 10, JumpProb: 0.02, ZipfS: 1.2,
		Phases: []trace.Phase{{
			Instructions: 1 << 40, WorkingSetBytes: 32 << 10,
			Mix: trace.PatternMix{Zipf: 0.55, Seq: 0.2}, WriteFrac: 0.3, MemFrac: 0.5,
		}},
	}

	slot := 0
	newCache := func() *cache.Cache {
		ccfg := cache.Config{Name: "L1", SizeBytes: org.SizeBytes,
			Assoc: org.Assoc, BlockBytes: org.BlockBytes}
		if arena != nil {
			c := arena.cacheFor(ccfg, slot)
			slot++
			return c
		}
		return cache.MustNew(ccfg)
	}
	const missPenalty = 100

	// drive runs `instructions` data accesses through fn, which returns
	// (hit result, extra latency); it returns total cycles.
	type stepFn func(addr uint64, write bool, now uint64) (cache.AccessResult, uint64)
	drive := func(fn stepFn) (uint64, error) {
		gen := trace.MustNew(w, seed)
		var ins trace.Instr
		now := uint64(0)
		for i := uint64(0); i < instructions; i++ {
			if i&ctxCheckMask == 0 && ctx.Err() != nil {
				return 0, ctx.Err()
			}
			gen.Next(&ins)
			now++ // base CPI
			if !ins.HasMem {
				continue
			}
			res, extra := fn(ins.Addr, ins.Write, now)
			now += 2 + extra
			if !res.Hit {
				now += missPenalty
			}
		}
		return now, nil
	}

	nblocks := float64(org.Blocks())

	// Baseline: every line leaks fully for the whole run.
	baseC := newCache()
	baseCycles, err := drive(func(a uint64, wr bool, now uint64) (cache.AccessResult, uint64) {
		return baseC.Access(a, wr), 0
	})
	if err != nil {
		return nil, nil, err
	}
	baseLineCycles := float64(baseCycles) * nblocks

	var rows []LeakageRow
	add := func(name string, lineCycles, leakFactorAtV float64, cycles uint64, loses, tolerates bool) {
		rows = append(rows, LeakageRow{
			Technique:      name,
			LeakEnergyRel:  lineCycles * leakFactorAtV / baseLineCycles,
			ExtraCyclesPct: (float64(cycles)/float64(baseCycles) - 1) * 100,
			LosesState:     loses,
			ToleratesFault: tolerates,
		})
	}
	add("conventional @1.0V", baseLineCycles, 1, baseCycles, false, false)

	// Drowsy cache.
	dc := leakage.NewDrowsy(newCache(), leakage.DefaultDrowsyParams())
	drowsyCycles, err := drive(func(a uint64, wr bool, now uint64) (cache.AccessResult, uint64) {
		return dc.Access(a, wr, now)
	})
	if err != nil {
		return nil, nil, err
	}
	add("drowsy [9]", dc.ActiveLineCycles(drowsyCycles), 1, drowsyCycles, false, false)

	// Cache decay / Gated-Vdd.
	gc := leakage.NewDecay(newCache(), leakage.DefaultDecayParams(), nil)
	decayCycles, err := drive(func(a uint64, wr bool, now uint64) (cache.AccessResult, uint64) {
		return gc.Access(a, wr, now), 0
	})
	if err != nil {
		return nil, nil, err
	}
	add("gated-Vdd decay [18]", gc.ActiveLineCycles(decayCycles), 1, decayCycles, true, false)

	// SPCS: whole data array at VDD2, faulty blocks gated. The fault
	// model and voltage plan are pure derivations of the geometry, so
	// they come from the memo layer.
	plan, err := levelPlanFor(org)
	if err != nil {
		return nil, nil, err
	}
	v2 := plan.Levels.Volts(plan.SPCSLevel)
	var fmap *faultmap.Map
	if arena != nil {
		if arena.fmap == nil {
			arena.fmap = faultmap.NewMap(plan.Levels, org.Blocks())
		}
		arena.rng.Reseed(seed)
		core.PopulateMapMonteCarloInto(&arena.rng, plan, org.Blocks(), arena.fmap)
		fmap = arena.fmap
	} else {
		fmap = core.PopulateMapMonteCarlo(stats.NewRNG(seed), plan, org.Blocks())
	}
	spcsC := newCache()
	for s := 0; s < spcsC.Sets(); s++ {
		for w := 0; w < spcsC.Ways(); w++ {
			if fmap.FaultyAt(spcsC.BlockIndex(s, w), plan.SPCSLevel) {
				spcsC.SetFaulty(s, w, true)
			}
		}
	}
	spcsCycles, err := drive(func(a uint64, wr bool, now uint64) (cache.AccessResult, uint64) {
		return spcsC.Access(a, wr), 0
	})
	if err != nil {
		return nil, nil, err
	}
	active := nblocks - float64(spcsC.FaultyCount())
	leakAtV2 := tech.LeakagePower(device.RVT, v2) / tech.LeakagePower(device.RVT, tech.VDDNom)
	add(fmt.Sprintf("SPCS @%.2fV (this paper)", v2),
		float64(spcsCycles)*active, leakAtV2, spcsCycles, false, true)

	return rows, LeakageTable(rows), nil
}

// LeakageTable renders the leakage-technique comparison from its rows.
func LeakageTable(rows []LeakageRow) *report.Table {
	t := report.NewTable("Leakage-reduction techniques on one L1 workload (data-array leakage, relative)",
		"Technique", "Leakage energy", "Exec overhead %", "Loses state?", "Fault-tolerant?")
	for _, r := range rows {
		t.AddRow(r.Technique,
			fmt.Sprintf("%.3f", r.LeakEnergyRel),
			fmt.Sprintf("%+.2f", r.ExtraCyclesPct),
			r.LosesState, r.ToleratesFault)
	}
	return t
}
