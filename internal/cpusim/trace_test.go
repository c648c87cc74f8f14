package cpusim

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
)

// TestPhaseSpans runs a traced DPCS simulation and checks the
// phase-granular span taxonomy: build, tracegen, warmup, measure and
// energy each appear once as children of the caller's span, and every
// policy transition, warm-up included, appears as one dpcs.transition
// instant. Tracing must not perturb the simulation itself.
func TestPhaseSpans(t *testing.T) {
	base, err := Run(ConfigA(), core.DPCS, smallWorkload(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	var events obs.Collector
	tr := tracez.New(&buf)
	ctx, root := tr.Start(tracez.ContextWith(context.Background(), tr), "job")
	opts := fastOpts()
	opts.Sink = &events
	res, err := RunContext(ctx, ConfigA(), core.DPCS, smallWorkload(), opts)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if res.TotalCacheEnergyJ != base.TotalCacheEnergyJ || res.Cycles != base.Cycles {
		t.Fatalf("tracing changed the simulation: %+v vs %+v", res, base)
	}

	spans, err := tracez.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	var rootID string
	for _, sp := range spans {
		if sp.Name == "job" {
			rootID = sp.ID
		}
		counts[sp.Name]++
	}
	for _, phase := range []string{"sim.build", "sim.tracegen", "sim.warmup", "sim.measure", "sim.energy"} {
		if counts[phase] != 1 {
			t.Errorf("%s spans: %d, want 1", phase, counts[phase])
		}
	}
	for _, sp := range spans {
		if sp.Name != "job" && sp.Parent != rootID {
			t.Errorf("%s span parented to %q, want job span %q", sp.Name, sp.Parent, rootID)
		}
		if sp.Name == "dpcs.transition" && sp.Kind != tracez.KindInstant {
			t.Errorf("dpcs.transition recorded as %q, want instant", sp.Kind)
		}
	}
	// The instants cover warm-up too, so they may outnumber the
	// measured window's transitions, but they match the policy
	// telemetry's transition events one for one.
	if trans, _ := res.ResourceCounts(); trans == 0 {
		t.Fatal("DPCS run reported zero measured transitions")
	}
	var transEvents int
	for _, ev := range events.Events {
		if ev.Decision == obs.DecisionTransition {
			transEvents++
		}
	}
	if counts["dpcs.transition"] != transEvents || transEvents == 0 {
		t.Errorf("%d dpcs.transition instants for %d transition events", counts["dpcs.transition"], transEvents)
	}
}

// TestResourceCounts checks the ResourceCounter totals agree with the
// per-cache results.
func TestResourceCounts(t *testing.T) {
	res, err := Run(ConfigA(), core.DPCS, smallWorkload(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	trans, wbs := res.ResourceCounts()
	if want := res.L1I.Transitions + res.L1D.Transitions + res.L2.Transitions; trans != want {
		t.Errorf("transitions %d, want %d", trans, want)
	}
	if want := res.L1I.Stats.Writebacks + res.L1D.Stats.Writebacks + res.L2.Stats.Writebacks; wbs != want {
		t.Errorf("writebacks %d, want %d", wbs, want)
	}
	if wbs == 0 {
		t.Error("write-heavy workload produced zero writebacks")
	}
}
