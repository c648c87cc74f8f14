package cpusim

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faultmodel"
	"repro/internal/obs/tracez"
	"repro/internal/trace"
)

// TestReplayEquivalence records a workload to the binary trace format,
// replays it through the simulator, and requires cycle- and
// energy-identical results to driving the generator directly — the
// cross-module contract between trace recording and simulation.
func TestReplayEquivalence(t *testing.T) {
	w := smallWorkload()
	const total = 300_000
	opts := RunOptions{WarmupInstr: 50_000, SimInstr: total - 50_000, Seed: 1}

	direct, err := Run(ConfigA(), core.SPCS, w, opts)
	if err != nil {
		t.Fatal(err)
	}

	gen := trace.MustNew(w, opts.Seed)
	var buf bytes.Buffer
	if err := trace.Record(gen, total, &buf); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rep := trace.NewReplay(w.Name, r, nil)
	replayed, err := RunGenerator(ConfigA(), core.SPCS, rep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() != nil {
		t.Fatal(rep.Err())
	}

	if direct.Cycles != replayed.Cycles {
		t.Errorf("cycles differ: %d vs %d", direct.Cycles, replayed.Cycles)
	}
	if direct.TotalCacheEnergyJ != replayed.TotalCacheEnergyJ {
		t.Errorf("energy differs: %v vs %v",
			direct.TotalCacheEnergyJ, replayed.TotalCacheEnergyJ)
	}
	if direct.L1D.Stats != replayed.L1D.Stats || direct.L2.Stats != replayed.L2.Stats {
		t.Error("cache statistics differ between direct and replayed runs")
	}
}

// TestEnergyConservation checks the energy ledger's internal consistency
// over a DPCS run: component sums match totals, and static energy equals
// power-weighted time within the integration's resolution.
func TestEnergyConservation(t *testing.T) {
	r, err := Run(ConfigA(), core.DPCS, smallWorkload(),
		RunOptions{WarmupInstr: 100_000, SimInstr: 500_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range []CacheResult{r.L1I, r.L1D, r.L2} {
		sum := cr.Energy.StaticJ + cr.Energy.DynamicJ + cr.Energy.TransitionJ
		if diff := sum - cr.Energy.TotalJ; diff > 1e-15 || diff < -1e-15 {
			t.Errorf("%s: component sum %v != total %v", cr.Name, sum, cr.Energy.TotalJ)
		}
		var timeSum uint64
		for _, c := range cr.TimeAtLevelCycles {
			timeSum += c
		}
		if timeSum == 0 {
			t.Errorf("%s: no time integrated", cr.Name)
		}
	}
	total := r.L1I.Energy.TotalJ + r.L1D.Energy.TotalJ + r.L2.Energy.TotalJ
	if diff := total - r.TotalCacheEnergyJ; diff > 1e-15 || diff < -1e-15 {
		t.Errorf("cache sum %v != reported total %v", total, r.TotalCacheEnergyJ)
	}
}

// TestModesShareFaultMaps verifies SPCS and DPCS of the same seed see
// identical fault geography: their caches gate the same block count at
// the same level.
func TestModesShareFaultMaps(t *testing.T) {
	s1, err := NewSystemArena(nil, ConfigA(), core.SPCS, 7)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSystemArena(nil, ConfigA(), core.DPCS, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s1.L2Controller(), s2.L2Controller()
	for blk := 0; blk < a.Cache.NumBlocks(); blk += 97 {
		if a.Map.FM(blk) != b.Map.FM(blk) {
			t.Fatalf("block %d FM differs across modes", blk)
		}
	}
}

// TestCacheHierarchyInclusionOfTraffic sanity-checks traffic flow: L2
// demand accesses can never exceed L1 misses plus L1 writebacks.
func TestCacheHierarchyInclusionOfTraffic(t *testing.T) {
	r, err := Run(ConfigA(), core.Baseline, smallWorkload(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	upper := r.L1I.Stats.Misses + r.L1D.Stats.Misses +
		r.L1I.Stats.Writebacks + r.L1D.Stats.Writebacks
	if r.L2.Stats.Accesses > upper {
		t.Errorf("L2 accesses %d exceed L1 miss+wb traffic %d",
			r.L2.Stats.Accesses, upper)
	}
	// And cycles account for at least the misses' latency.
	minCycles := r.Instructions + r.L2.Stats.Misses*uint64(ConfigA().MemCycles)
	if r.Cycles < minCycles {
		t.Errorf("cycles %d below floor %d", r.Cycles, minCycles)
	}
}

// TestDPCSNeverExceedsSPCSVoltage asserts the paper's rule that DPCS
// treats the SPCS level as its ceiling.
func TestDPCSNeverExceedsSPCSVoltage(t *testing.T) {
	r, err := Run(ConfigA(), core.DPCS, smallWorkload(),
		RunOptions{WarmupInstr: 100_000, SimInstr: 400_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range []CacheResult{r.L1I, r.L1D, r.L2} {
		top := len(cr.LevelVolts) - 1 // index of VDD3
		if cr.TimeAtLevelCycles[top] != 0 {
			t.Errorf("%s spent %d cycles at nominal VDD under DPCS",
				cr.Name, cr.TimeAtLevelCycles[top])
		}
	}
}

// TestMLPOverlapShrinksStalls checks the OoO-overlap knob: a core that
// hides half its miss latency runs faster, while cache energy events
// (accesses, misses) stay identical.
func TestMLPOverlapShrinksStalls(t *testing.T) {
	w := smallWorkload()
	blocking, err := Run(ConfigA(), core.Baseline, w, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigA()
	cfg.MLPOverlap = 0.5
	ooo, err := Run(cfg, core.Baseline, w, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if ooo.Cycles >= blocking.Cycles {
		t.Fatalf("overlapped run not faster: %d vs %d", ooo.Cycles, blocking.Cycles)
	}
	if ooo.L1D.Stats.Misses != blocking.L1D.Stats.Misses ||
		ooo.L2.Stats.Accesses != blocking.L2.Stats.Accesses {
		t.Error("overlap changed cache event counts")
	}
	// Static energy shrinks with runtime; dynamic energy is identical.
	if ooo.L2.Energy.DynamicJ != blocking.L2.Energy.DynamicJ {
		t.Error("overlap changed dynamic energy")
	}
	if ooo.L2.Energy.StaticJ >= blocking.L2.Energy.StaticJ {
		t.Error("shorter run did not shrink static energy")
	}
}

// tickCounter wraps a level's policy to count the Ticks the simulator's
// Due gate lets through.
type tickCounter struct {
	Policy
	ticks int
}

func (p *tickCounter) Tick(now uint64, sink func(addr uint64)) uint64 {
	p.ticks++
	return p.Policy.Tick(now, sink)
}

// TestPolicyContract checks what each mode's policy values promise, on
// both configurations: after Start a baseline level sits at the top
// level with no transition, and SPCS and DPCS levels at the SPCS level
// after one; baseline and SPCS levels are never due over a run, while
// DPCS levels decide, one dpcs.decision instant per tick; and every
// instant a level records goes under the one span set on its
// controller.
func TestPolicyContract(t *testing.T) {
	for _, cfg := range []SystemConfig{ConfigA(), ConfigB()} {
		for _, mode := range []core.Mode{core.Baseline, core.SPCS, core.DPCS} {
			sys, err := NewSystemArena(nil, cfg, mode, 1)
			if err != nil {
				t.Fatal(err)
			}
			specs := [3]CacheSpec{cfg.L1I, cfg.L1D, cfg.L2}
			var buf bytes.Buffer
			tr := tracez.New(&buf)
			var counters [3]*tickCounter
			var spans [3]*tracez.Span
			var started [3]int // transitions after Start
			for k, lv := range sys.levels() {
				counters[k] = &tickCounter{Policy: lv.Pol}
				lv.Pol = counters[k]
				spans[k] = tr.StartRoot("level")
				lv.Ctrl.SetSpan(spans[k])
			}
			sys.start()
			for k, lv := range sys.levels() {
				name := fmt.Sprintf("%s/%v/%s", cfg.Name, mode, lv.Ctrl.Cache.Name())
				wantLevel, wantTrans := lv.Ctrl.Levels.N(), 0
				if mode != core.Baseline {
					geom := faultmodel.Geometry{Sets: lv.Ctrl.Cache.Sets(), Ways: lv.Ctrl.Cache.Ways(), BlockBits: specs[k].Org.BlockBits()}
					pcs, err := pcsStaticsFor(specs[k].Org, geom)
					if err != nil {
						t.Fatal(err)
					}
					wantLevel, wantTrans = pcs.plan.SPCSLevel, 1
				}
				started[k] = lv.Ctrl.Transitions()
				if lv.Ctrl.Level() != wantLevel || started[k] != wantTrans {
					t.Errorf("%s: after Start at level %d with %d transitions, want level %d with %d",
						name, lv.Ctrl.Level(), lv.Ctrl.Transitions(), wantLevel, wantTrans)
				}
				if lv.Timed != (mode == core.DPCS) {
					t.Errorf("%s: Timed = %v", name, lv.Timed)
				}
			}

			mcf, _ := trace.ByName("mcf.s")
			p := trace.NewPipe(trace.AsBlock(trace.MustNew(mcf, 1)), nil)
			ctx := context.Background()
			if err := sys.simulate(ctx, p, 50_000); err != nil {
				t.Fatal(err)
			}
			sys.arm()
			if err := sys.simulate(ctx, p, 300_000); err != nil {
				t.Fatal(err)
			}
			recorded, err := tracez.ReadSpans(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for k, lv := range sys.levels() {
				name := fmt.Sprintf("%s/%v/%s", cfg.Name, mode, lv.Ctrl.Cache.Name())
				var mine []tracez.Span
				for _, sp := range recorded {
					if sp.Parent == spans[k].ID {
						mine = append(mine, sp)
					}
				}
				dec, trans := instantsOf(t, mine, spans[k].ID)
				decisions, transitions := len(dec), len(trans)
				for _, in := range append(dec, trans...) {
					if in.Cache != lv.Ctrl.Cache.Name() {
						t.Errorf("%s: instant for cache %q under this level's span", name, in.Cache)
					}
				}
				if transitions != lv.Ctrl.Transitions() {
					t.Errorf("%s: %d transition instants, controller made %d", name, transitions, lv.Ctrl.Transitions())
				}
				if mode != core.DPCS {
					if counters[k].ticks != 0 || decisions != 0 || lv.Ctrl.Transitions() != started[k] {
						t.Errorf("%s: %d ticks, %d decisions, %d transitions; a static policy is never due",
							name, counters[k].ticks, decisions, lv.Ctrl.Transitions())
					}
				} else if counters[k].ticks == 0 || decisions != counters[k].ticks {
					t.Errorf("%s: %d ticks and %d decision instants, want equal and > 0", name, counters[k].ticks, decisions)
				}
			}
		}
	}
}
