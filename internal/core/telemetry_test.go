package core

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"testing"

	"repro/internal/obs/tracez"
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

// steadyInterval is one hit-only sampling interval plus the policy tick
// that closes it.
func steadyInterval(r *policyRig) {
	for i := 0; i < int(r.cfg.Interval); i++ {
		r.cache.Access(0x40, false)
		r.now += 2
	}
	r.pol.Tick(r.now, nil)
}

// TestTickZeroAllocsWhenTracingOff asserts the recording path is free
// when off: with the nil span a job without a tracer hands over, the
// per-interval policy path performs zero heap allocations.
func TestTickZeroAllocsWhenTracingOff(t *testing.T) {
	t.Run("nil", func(t *testing.T) {
		ctx := context.Background()
		_, sp := tracez.FromContext(ctx).Start(ctx, "job")
		r := newPolicyRig(t)
		r.ctrl.SetSpan(sp)
		r.pol.Start(nil)
		r.pol.Arm(0)
		settleAtFloor(t, r)
		if avg := testing.AllocsPerRun(50, func() { steadyInterval(r) }); avg != 0 {
			t.Errorf("policy interval allocated %.1f times per run, want 0", avg)
		}
	})
}

// TestDecisionInstantAllocs pins what one recorded decision costs: a
// settled interval makes no transition, so its tick records exactly one
// dpcs.decision instant, which allocates 3 times (the span, its ID and
// its attribute buffer). scripts/check.sh runs this gate.
func TestDecisionInstantAllocs(t *testing.T) {
	tr := tracez.New(io.Discard)
	r := newPolicyRig(t)
	r.ctrl.SetSpan(tr.StartRoot("job"))
	r.pol.Start(nil)
	r.pol.Arm(0)
	settleAtFloor(t, r)
	// Span IDs under 100 format without allocating; measure past them.
	for i := 0; i < 100; i++ {
		tr.StartRoot("warm")
	}
	avg := testing.AllocsPerRun(1000, func() { steadyInterval(r) })
	t.Logf("%.0f allocs per recorded decision", avg)
	if avg > 3 {
		t.Errorf("a tick recording one decision allocates %.0f times, want <= 3", avg)
	}
}

// instant is a dpcs.decision or dpcs.transition instant's attributes.
type instant struct {
	Cache      string   `json:"cache"`
	Cycle      uint64   `json:"cycle"`
	Decision   string   `json:"decision"`
	Interval   *int     `json:"interval"`
	MissRate   *float64 `json:"miss_rate"`
	CAAT       *float64 `json:"caat"`
	NAAT       *float64 `json:"naat"`
	From, To   int
	FromVDD    float64 `json:"from_vdd"`
	ToVDD      float64 `json:"to_vdd"`
	Writebacks int     `json:"writebacks"`
}

// TestPolicyEmitsTypedDecisions checks the instants carry the Listing-1
// state machine: every decision is one dpcs.decision instant with its
// sampling-window state, a calibration opens the super-interval, the
// down decisions equal the policy's counter, and each controller
// transition is one dpcs.transition instant.
func TestPolicyEmitsTypedDecisions(t *testing.T) {
	var buf bytes.Buffer
	tr := tracez.New(&buf)
	job := tr.StartRoot("job")
	r := newPolicyRig(t)
	r.ctrl.SetSpan(job)
	r.pol.Start(nil)
	r.pol.Arm(0)
	ticks := 2 * r.cfg.SuperInterval
	for i := 0; i < ticks; i++ {
		r.runInterval(t, 0)
	}
	job.End()

	spans, err := tracez.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	decisions, transitions, transitionWBs := 0, 0, 0
	for _, sp := range spans {
		if sp.Name == "job" {
			continue
		}
		if sp.Parent != job.ID || sp.Kind != tracez.KindInstant {
			t.Fatalf("%s span parent %q kind %q, want an instant under the job", sp.Name, sp.Parent, sp.Kind)
		}
		var a instant
		if err := json.Unmarshal(sp.Attrs, &a); err != nil {
			t.Fatal(err)
		}
		if a.Cache != "p" {
			t.Fatalf("%s cache %q, want %q", sp.Name, a.Cache, "p")
		}
		switch sp.Name {
		case "dpcs.decision":
			decisions++
			counts[a.Decision]++
			if a.Interval == nil || a.MissRate == nil || a.CAAT == nil || a.NAAT == nil {
				t.Fatalf("decision %s lacks its window state: %s", a.Decision, sp.Attrs)
			}
		case "dpcs.transition":
			transitions++
			transitionWBs += a.Writebacks
			if a.FromVDD != r.ctrl.Levels.Volts(a.From) || a.ToVDD != r.ctrl.Levels.Volts(a.To) {
				t.Errorf("transition %d->%d records VDD %v->%v", a.From, a.To, a.FromVDD, a.ToVDD)
			}
		default:
			t.Fatalf("unexpected span %q", sp.Name)
		}
	}
	if decisions != ticks {
		t.Errorf("%d decision instants for %d ticks", decisions, ticks)
	}
	if counts[DecisionCalibrate.String()] == 0 {
		t.Error("no calibrate decision")
	}
	if counts[DecisionDown.String()] != r.pol.Downs || r.pol.Downs == 0 {
		t.Errorf("down decisions %d, policy counter %d", counts[DecisionDown.String()], r.pol.Downs)
	}
	if counts[DecisionUp.String()] != r.pol.Ups || counts[DecisionReset.String()] != r.pol.Resets {
		t.Errorf("up/reset decisions %d/%d, policy counters %d/%d",
			counts[DecisionUp.String()], counts[DecisionReset.String()], r.pol.Ups, r.pol.Resets)
	}
	if transitions != r.ctrl.Transitions() {
		t.Errorf("transition instants %d, controller counter %d", transitions, r.ctrl.Transitions())
	}
	if uint64(transitionWBs) != r.ctrl.TransitionWritebacks() {
		t.Errorf("instant writebacks %d, controller counter %d",
			transitionWBs, r.ctrl.TransitionWritebacks())
	}
}
