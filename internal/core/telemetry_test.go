package core

import (
	"testing"

	"repro/internal/obs"
)

// settleAtFloor drives the rig until the policy has descended to the
// bottom level and reached steady state, so subsequent hit-only
// intervals make no transitions (descents are blocked by the floor,
// escapes by the zero miss rate, recalibrations by the skip-reset path).
func settleAtFloor(t testing.TB, r *policyRig) {
	t.Helper()
	for i := 0; i < 3*r.cfg.SuperInterval; i++ {
		r.runInterval(t, 0)
	}
	if r.ctrl.Level() != 1 {
		t.Fatalf("rig did not settle at the floor: level %d", r.ctrl.Level())
	}
}

// TestTickZeroAllocsWhenTracingOff asserts the telemetry refactor's
// performance contract: with no sink — or the no-op sink — attached, the
// per-interval policy path performs zero heap allocations.
func TestTickZeroAllocsWhenTracingOff(t *testing.T) {
	sinks := []struct {
		name string
		sink obs.PolicySink
	}{
		{"nil", nil},
		{"nop", obs.NopSink{}},
	}
	for _, tc := range sinks {
		t.Run(tc.name, func(t *testing.T) {
			r := newPolicyRig(t)
			r.pol.Start(nil)
			r.pol.Arm(0)
			r.ctrl.SetSink(tc.sink)
			settleAtFloor(t, r)
			avg := testing.AllocsPerRun(50, func() {
				for i := 0; i < int(r.cfg.Interval); i++ {
					r.cache.Access(0x40, false)
					r.now += 2
				}
				r.pol.Tick(r.now, nil)
			})
			if avg != 0 {
				t.Errorf("policy interval allocated %.1f times per run, want 0", avg)
			}
		})
	}
}

// TestPolicyEmitsTypedDecisions checks the event stream carries the
// Listing-1 state machine: a calibration at the super-interval start, a
// descent with CAAT/NAAT context, and one transition event per
// controller transition.
func TestPolicyEmitsTypedDecisions(t *testing.T) {
	r := newPolicyRig(t)
	col := &obs.Collector{}
	r.ctrl.SetSink(col)
	r.pol.Start(nil)
	r.pol.Arm(0)
	for i := 0; i < 2*r.cfg.SuperInterval; i++ {
		r.runInterval(t, 0)
	}

	counts := map[obs.Decision]int{}
	transitionWBs := 0
	for _, ev := range col.Events {
		counts[ev.Decision]++
		if ev.CacheName != "p" {
			t.Fatalf("event cache %q, want %q", ev.CacheName, "p")
		}
		if ev.Decision == obs.DecisionTransition {
			transitionWBs += ev.Writebacks
		}
	}
	if counts[obs.DecisionCalibrate] == 0 {
		t.Error("no calibrate event")
	}
	if counts[obs.DecisionDown] != r.pol.Downs {
		t.Errorf("down events %d, policy counter %d", counts[obs.DecisionDown], r.pol.Downs)
	}
	if counts[obs.DecisionTransition] != r.ctrl.Transitions() {
		t.Errorf("transition events %d, controller counter %d",
			counts[obs.DecisionTransition], r.ctrl.Transitions())
	}
	if uint64(transitionWBs) != r.ctrl.TransitionWritebacks() {
		t.Errorf("event writebacks %d, controller counter %d",
			transitionWBs, r.ctrl.TransitionWritebacks())
	}
}
