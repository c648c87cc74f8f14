package cpusim

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/tracez"
	"repro/internal/trace"
)

// instant is a dpcs.decision or dpcs.transition instant's attributes.
type instant struct {
	Cache      string `json:"cache"`
	Cycle      uint64 `json:"cycle"`
	Decision   string `json:"decision"`
	From, To   int
	Writebacks int `json:"writebacks"`
}

// instantsOf decodes the dpcs.* instants among spans, in recording
// order, failing on one that is not an instant under parent.
func instantsOf(t *testing.T, spans []tracez.Span, parent string) (decisions, transitions []instant) {
	t.Helper()
	for _, sp := range spans {
		if sp.Name != "dpcs.decision" && sp.Name != "dpcs.transition" {
			continue
		}
		if sp.Parent != parent || sp.Kind != tracez.KindInstant {
			t.Fatalf("%s span parent %q kind %q, want an instant under %q", sp.Name, sp.Parent, sp.Kind, parent)
		}
		var in instant
		if err := json.Unmarshal(sp.Attrs, &in); err != nil {
			t.Fatal(err)
		}
		if sp.Name == "dpcs.decision" {
			decisions = append(decisions, in)
		} else {
			transitions = append(transitions, in)
		}
	}
	return decisions, transitions
}

// TestTimelineReconciliation is the acceptance test for the span
// record of the policy: a traced DPCS run's instants must exactly
// reconcile, per cache, with the controllers' and policies' own
// counters — transition instants with Transitions(), their summed
// writebacks with TransitionWritebacks(), their piecewise-constant
// level replay over [0, end_cycle) with TimeAtLevelCycles(), and the
// down, up and reset decisions with the policy's Downs, Ups and
// Resets. Recording must not change the result.
func TestTimelineReconciliation(t *testing.T) {
	w := smallWorkload()
	opts := RunOptions{WarmupInstr: 100_000, SimInstr: 1_500_000, Seed: 1}
	untraced, err := Run(ConfigA(), core.DPCS, w, opts)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	tr := tracez.New(&buf)
	ctx, job := tr.Start(context.Background(), "job")
	sys, err := NewSystemArena(nil, ConfigA(), core.DPCS, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.run(ctx, trace.MustNew(w, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	job.End()
	if res.Cycles != untraced.Cycles || res.TotalCacheEnergyJ != untraced.TotalCacheEnergyJ {
		t.Fatalf("recording spans changed the result: %+v vs %+v", res, untraced)
	}

	spans, err := tracez.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var window struct {
		Start uint64  `json:"start_cycle"`
		End   uint64  `json:"end_cycle"`
		Clock float64 `json:"clock_hz"`
	}
	for _, sp := range spans {
		if sp.Name == "sim.measure" {
			if err := json.Unmarshal(sp.Attrs, &window); err != nil {
				t.Fatal(err)
			}
		}
	}
	if window.End != sys.Cycles || window.End-window.Start != res.Cycles || window.Clock != ConfigA().ClockHz {
		t.Fatalf("sim.measure window %+v, run ended at %d after %d measured cycles", window, sys.Cycles, res.Cycles)
	}
	decisions, transitions := instantsOf(t, spans, job.ID)
	if len(decisions) == 0 {
		t.Fatal("no dpcs.decision instants")
	}

	for _, lv := range sys.levels() {
		ctrl := lv.Ctrl
		name := ctrl.Cache.Name()
		// Replay this cache's transitions over [0, end_cycle).
		curLevel := ctrl.Levels.N() // controllers start at the top level
		lastCycle := uint64(0)
		timeAt := make([]uint64, ctrl.Levels.N())
		count, writebacks := 0, 0
		for _, in := range transitions {
			if in.Cache != name {
				continue
			}
			if in.From != curLevel {
				t.Fatalf("%s: transition at cycle %d from level %d, expected %d",
					name, in.Cycle, in.From, curLevel)
			}
			if in.Cycle < lastCycle {
				t.Fatalf("%s: transitions not cycle-ordered", name)
			}
			timeAt[curLevel-1] += in.Cycle - lastCycle
			lastCycle = in.Cycle
			curLevel = in.To
			count++
			writebacks += in.Writebacks
		}
		timeAt[curLevel-1] += window.End - lastCycle

		if count != ctrl.Transitions() {
			t.Errorf("%s: %d transition instants, controller says %d", name, count, ctrl.Transitions())
		}
		if uint64(writebacks) != ctrl.TransitionWritebacks() {
			t.Errorf("%s: %d instant writebacks, controller says %d",
				name, writebacks, ctrl.TransitionWritebacks())
		}
		if curLevel != ctrl.Level() {
			t.Errorf("%s: replayed final level %d, controller at %d", name, curLevel, ctrl.Level())
		}
		for i, want := range ctrl.TimeAtLevelCycles() {
			if timeAt[i] != want {
				t.Errorf("%s: level %d residency %d cycles from the instants, controller says %d",
					name, i+1, timeAt[i], want)
			}
		}

		pol := lv.Pol.(*core.DPCSPolicy)
		byName := map[string]int{}
		for _, in := range decisions {
			if in.Cache == name {
				byName[in.Decision]++
			}
		}
		if byName[core.DecisionDown.String()] != pol.Downs || byName[core.DecisionUp.String()] != pol.Ups ||
			byName[core.DecisionReset.String()] != pol.Resets {
			t.Errorf("%s: down/up/reset decisions %d/%d/%d, policy counts %d/%d/%d", name,
				byName[core.DecisionDown.String()], byName[core.DecisionUp.String()], byName[core.DecisionReset.String()],
				pol.Downs, pol.Ups, pol.Resets)
		}
	}
	if sys.l2.Pol.(*core.DPCSPolicy).Downs == 0 {
		t.Error("the L2 never descended; the reconciliation saw no run-time transition")
	}
}
