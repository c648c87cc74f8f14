// Package obs is the observability layer: typed DPCS policy telemetry
// (the structured replacement for the old printf Trace hook) with its
// JSONL policy timelines, a small metrics registry with Prometheus
// text rendering, and HTTP request logging middleware. Campaign job
// records are spans (internal/obs/tracez).
//
// The package is a leaf: it imports only the standard library, so every
// subsystem (core, cpusim, runner, the cmd harnesses) can depend on it
// without cycles. Telemetry is pull-free and allocation-conscious — a
// simulator with no sink attached, or with NopSink, pays zero
// allocations per policy tick (asserted by tests via
// testing.AllocsPerRun).
package obs

import (
	"context"
	"fmt"
)

// Decision classifies what the DPCS machinery did at one telemetry
// point. Decisions map onto the paper's Listing 1 (the interval state
// machine) and Listing 2 (the transition procedure); see DESIGN.md.
type Decision uint8

const (
	// DecisionNone is an interval sample that took no action.
	DecisionNone Decision = iota
	// DecisionCalibrate is the first interval of a super-interval, where
	// the policy refreshes its NAAT estimate at the SPCS voltage.
	DecisionCalibrate
	// DecisionHold is an interval where a descent was suppressed by the
	// post-descent grace window or the hold-until-reset latch.
	DecisionHold
	// DecisionUp is a performance escape: the measured slowdown crossed
	// the high threshold and the voltage stepped up one level.
	DecisionUp
	// DecisionDown is a descent: CAAT was within the low threshold of
	// NAAT plus the amortised transition penalty.
	DecisionDown
	// DecisionReset is the super-interval recalibration return to the
	// SPCS voltage.
	DecisionReset
	// DecisionSkipReset is a recalibration the policy skipped because the
	// super-interval ran clean and the workload looked stationary.
	DecisionSkipReset
	// DecisionTransition is a raw controller voltage transition (the
	// Listing 2 procedure itself). Every Controller.Transition call emits
	// exactly one such event, so counting them reconciles with
	// Controller.Transitions().
	DecisionTransition
)

var decisionNames = [...]string{
	DecisionNone:       "none",
	DecisionCalibrate:  "calibrate",
	DecisionHold:       "hold",
	DecisionUp:         "up",
	DecisionDown:       "down",
	DecisionReset:      "reset",
	DecisionSkipReset:  "skip_reset",
	DecisionTransition: "transition",
}

// String implements fmt.Stringer.
func (d Decision) String() string {
	if int(d) < len(decisionNames) {
		return decisionNames[d]
	}
	return fmt.Sprintf("Decision(%d)", uint8(d))
}

// MarshalJSON renders the decision as its string name.
func (d Decision) MarshalJSON() ([]byte, error) {
	return []byte(`"` + d.String() + `"`), nil
}

// UnmarshalJSON parses a decision name.
func (d *Decision) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	for i, name := range decisionNames {
		if name == s {
			*d = Decision(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown decision %q", s)
}

// PolicyEvent is one structured DPCS telemetry record. Interval
// decisions carry the Listing 1 sampling state (Interval, MissRate,
// CAAT, NAAT); transition events carry the Listing 2 outcome
// (FromLevel/ToLevel, VDDs, Writebacks, Invalidations, PenaltyCycles).
// A decision that caused a transition carries both.
type PolicyEvent struct {
	// Cycle is the simulation cycle at which the event fired.
	Cycle uint64 `json:"cycle"`
	// CacheName identifies the cache ("L1I-A", "L2-B", ...).
	CacheName string `json:"cache"`
	// Decision classifies the event.
	Decision Decision `json:"decision"`
	// Interval is the policy's sampling window in accesses (decision
	// events only).
	Interval uint64 `json:"interval,omitempty"`
	// MissRate is the window's observed miss rate.
	MissRate float64 `json:"miss_rate,omitempty"`
	// CAAT is the estimated current average access time for the window.
	CAAT float64 `json:"caat,omitempty"`
	// NAAT is the nominal average access time calibrated at the SPCS
	// voltage.
	NAAT float64 `json:"naat,omitempty"`
	// FromLevel and ToLevel are 1-based VDD levels (transition-bearing
	// events only).
	FromLevel int `json:"from_level,omitempty"`
	ToLevel   int `json:"to_level,omitempty"`
	// FromVDD and ToVDD are the corresponding data-array voltages.
	FromVDD float64 `json:"from_vdd,omitempty"`
	ToVDD   float64 `json:"to_vdd,omitempty"`
	// Writebacks and Invalidations count blocks the transition wrote
	// back and invalidated.
	Writebacks    int `json:"writebacks,omitempty"`
	Invalidations int `json:"invalidations,omitempty"`
	// PenaltyCycles is the transition's stall cost.
	PenaltyCycles uint64 `json:"penalty_cycles,omitempty"`
}

// PolicySink receives policy telemetry. Events are delivered by value so
// implementations may retain them without aliasing concerns, and a
// non-recording implementation costs no allocations.
//
// A sink attached to one simulator instance is called from that
// instance's goroutine only; sinks shared across concurrent simulations
// must be safe for concurrent use.
type PolicySink interface {
	Record(ev PolicyEvent)
}

// NopSink discards every event without allocating.
type NopSink struct{}

// Record implements PolicySink.
func (NopSink) Record(PolicyEvent) {}

// Collector accumulates events in memory, for tests and in-process
// rendering (e.g. the pcs-report VDD trajectory section).
type Collector struct {
	Events []PolicyEvent
}

// Record implements PolicySink.
func (c *Collector) Record(ev PolicyEvent) { c.Events = append(c.Events, ev) }

// sinkKey keys the context-attached policy sink.
type sinkKey struct{}

// ContextWithPolicySink attaches a sink to ctx, so campaign kind
// functions (internal/expers) can pick up per-job telemetry the runner
// wires in without threading observability through their parameter
// documents.
func ContextWithPolicySink(ctx context.Context, sink PolicySink) context.Context {
	return context.WithValue(ctx, sinkKey{}, sink)
}

// PolicySinkFromContext returns the attached sink, or nil.
func PolicySinkFromContext(ctx context.Context) PolicySink {
	sink, _ := ctx.Value(sinkKey{}).(PolicySink)
	return sink
}
