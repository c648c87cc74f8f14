package cpusim

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestTimelineReconciliation is the acceptance test for the timeline
// artifact: a DPCS run's JSONL transition events must exactly reconcile,
// per cache, with the controllers' own counters — event count with
// Transitions(), summed writebacks with TransitionWritebacks(), and the
// piecewise-constant level trajectory with TimeAtLevelCycles().
func TestTimelineReconciliation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timeline.jsonl")
	sink, err := obs.CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemArena(nil, ConfigA(), core.DPCS, 1)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNew(smallWorkload(), 1)
	opts := RunOptions{WarmupInstr: 100_000, SimInstr: 1_500_000, Seed: 1, Sink: sink}
	if _, err := sys.run(context.Background(), gen, opts); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := obs.ReadPolicyTimeline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty timeline")
	}

	for _, lv := range sys.levels() {
		ctrl := lv.Ctrl
		name := ctrl.Cache.Name()
		// Replay this cache's transitions over the timeline.
		curLevel := ctrl.Levels.N() // controllers start at the top level
		lastCycle := uint64(0)
		timeAt := make([]uint64, ctrl.Levels.N())
		transitions, writebacks := 0, 0
		for _, ev := range events {
			if ev.CacheName != name || ev.Decision != obs.DecisionTransition {
				continue
			}
			if ev.FromLevel != curLevel {
				t.Fatalf("%s: transition at cycle %d from level %d, expected %d",
					name, ev.Cycle, ev.FromLevel, curLevel)
			}
			if ev.Cycle < lastCycle {
				t.Fatalf("%s: timeline not cycle-ordered", name)
			}
			timeAt[curLevel-1] += ev.Cycle - lastCycle
			lastCycle = ev.Cycle
			curLevel = ev.ToLevel
			transitions++
			writebacks += ev.Writebacks
		}
		timeAt[curLevel-1] += sys.Cycles - lastCycle

		if transitions != ctrl.Transitions() {
			t.Errorf("%s: %d timeline transitions, controller says %d",
				name, transitions, ctrl.Transitions())
		}
		if uint64(writebacks) != ctrl.TransitionWritebacks() {
			t.Errorf("%s: %d timeline writebacks, controller says %d",
				name, writebacks, ctrl.TransitionWritebacks())
		}
		if curLevel != ctrl.Level() {
			t.Errorf("%s: timeline final level %d, controller at %d",
				name, curLevel, ctrl.Level())
		}
		for i, want := range ctrl.TimeAtLevelCycles() {
			if timeAt[i] != want {
				t.Errorf("%s: level %d residency %d cycles from timeline, controller says %d",
					name, i+1, timeAt[i], want)
			}
		}
	}

	// The L2 policy runs long enough to make interval decisions; they
	// must appear alongside the raw transitions.
	l2Decisions := 0
	for _, ev := range events {
		if ev.CacheName == sys.l2.Ctrl.Cache.Name() && ev.Decision != obs.DecisionTransition {
			l2Decisions++
		}
	}
	if l2Decisions == 0 {
		t.Error("no L2 interval decision events in timeline")
	}
}
