package core

import (
	"fmt"

	"repro/internal/cache"
)

// StaticPolicy holds a cache at one voltage for the whole run. SPCS
// moves it once, at cycle 0, to its SPCS level (the VDD2 computed by
// SelectLevels); baseline has no target level and leaves the controller
// at nominal. It schedules no decision, so its controller is never Due.
type StaticPolicy struct {
	ctrl  *Controller
	level int // 1-based target level; 0 keeps the top level
}

// NewStatic returns the static policy that moves ctrl to level at
// start; level 0 makes no transition (baseline).
func NewStatic(ctrl *Controller, level int) *StaticPolicy {
	return &StaticPolicy{ctrl: ctrl, level: level}
}

// Start makes the policy's one transition, if it has a target level.
func (p *StaticPolicy) Start(sink func(addr uint64)) {
	if p.level > 0 {
		p.ctrl.Transition(p.level, 0, sink)
	}
}

// Arm does nothing: a static policy makes no run-time decisions.
func (*StaticPolicy) Arm(now uint64) {}

// Tick does nothing: a static policy makes no run-time decisions.
func (*StaticPolicy) Tick(now uint64, sink func(addr uint64)) (stall uint64) { return 0 }

// DPCSConfig holds the dynamic policy's tuning knobs (Table 2).
type DPCSConfig struct {
	// Interval is the sampling window in cache accesses.
	Interval uint64
	// SuperInterval is the number of intervals between NAAT recalibrations
	// at the SPCS voltage.
	SuperInterval int
	// LowThreshold is the descent hysteresis fraction: the voltage steps
	// down only when CAAT < (1+Low)*(NAAT+TP'), where TP' is the
	// transition penalty amortised over the interval.
	//
	// HighThreshold is the escape budget: the maximum fraction of
	// execution time the policy tolerates losing to the reduced voltage
	// before stepping up. It is evaluated against the *measured*
	// slowdown (CAAT-NAAT)*Interval/windowCycles rather than the raw
	// CAAT/NAAT ratio: low-miss-rate caches make the ratio hypersensitive
	// (NAAT ~ hit time) while high-traffic caches can hide large global
	// slowdowns inside a small ratio. Both counters (cycles, accesses)
	// already exist in cache controllers, as the paper notes.
	LowThreshold, HighThreshold float64
	// HitCycles is the cache's hit latency, used to estimate average
	// access time from the sampled miss rate.
	HitCycles float64
	// MissPenaltyCycles is the controller's estimate of the cost of one
	// miss (next-level latency), used in the same estimate.
	MissPenaltyCycles float64
	// SPCSLevel is the 1-based level DPCS treats as its ceiling and its
	// NAAT calibration point ("DPCS never used a higher voltage than
	// SPCS, as it would not yield any improvement").
	SPCSLevel int

	// Ablation switches: disable individual damping refinements to
	// measure their contribution (see DESIGN.md §6). All false in
	// normal operation.
	Ablate AblationFlags
}

// AblationFlags turn off the policy's damping refinements one by one.
type AblationFlags struct {
	// NoHoldLatch allows descents immediately after a performance
	// escape, re-creating ascend/descend thrash.
	NoHoldLatch bool
	// NoBadLevelMemory forgets which level hurt, so every recalibration
	// re-explores it.
	NoBadLevelMemory bool
	// NoRefillClassification counts post-descent refill misses as
	// damage, triggering spurious escapes on big caches.
	NoRefillClassification bool
	// NoSkipReset forces the Listing-1 recalibration round trip every
	// super-interval even when nothing degraded.
	NoSkipReset bool
}

// Validate checks the configuration.
func (c DPCSConfig) Validate() error {
	if c.Interval == 0 {
		return fmt.Errorf("core: DPCS interval must be positive")
	}
	if c.SuperInterval < 3 {
		return fmt.Errorf("core: DPCS super-interval %d must be at least 3", c.SuperInterval)
	}
	if c.LowThreshold < 0 || c.HighThreshold <= c.LowThreshold {
		return fmt.Errorf("core: DPCS thresholds must satisfy 0 <= low < high, got %v/%v",
			c.LowThreshold, c.HighThreshold)
	}
	if c.HitCycles <= 0 || c.MissPenaltyCycles <= 0 {
		return fmt.Errorf("core: DPCS latencies must be positive")
	}
	if c.SPCSLevel < 1 {
		return fmt.Errorf("core: DPCS SPCS level %d must be >= 1", c.SPCSLevel)
	}
	return nil
}

// Decision classifies one DPCS interval decision, the outcome of one
// pass through the paper's Listing 1 (see DESIGN.md §7).
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
)

var decisionNames = [...]string{
	DecisionNone:      "none",
	DecisionCalibrate: "calibrate",
	DecisionHold:      "hold",
	DecisionUp:        "up",
	DecisionDown:      "down",
	DecisionReset:     "reset",
	DecisionSkipReset: "skip_reset",
}

// String returns the decision's name as a dpcs.decision instant records it.
func (d Decision) String() string {
	if int(d) < len(decisionNames) {
		return decisionNames[d]
	}
	return fmt.Sprintf("Decision(%d)", uint8(d))
}

// DPCSPolicy is the dynamic policy state machine of Listing 1. It samples the
// cache's miss rate every Interval accesses, converts it to an estimated
// current average access time (CAAT), and compares it against the
// nominal average access time (NAAT) measured at the SPCS voltage at the
// start of every SuperInterval, with high/low thresholding deciding
// whether to raise or lower the voltage.
type DPCSPolicy struct {
	cfg  DPCSConfig
	ctrl *Controller

	intervalCount int
	naat          float64
	// naatMr is the miss rate observed when naat was last refreshed,
	// used as a stationarity check before trusting naat enough to skip
	// a recalibration.
	naatMr      float64
	statsAtMark cache.Stats
	// holdUntilReset latches after a performance-triggered up-transition:
	// descending again before the next NAAT recalibration would thrash
	// (each descent invalidates the newly-faulty blocks, and refetching
	// them re-creates the very slowdown that forced the ascent). The
	// paper describes its policy as "only one of many possibilities";
	// this latch is part of the damping needed to reproduce its bounded
	// worst-case overheads on capacity-cliff workloads.
	holdUntilReset bool
	// badLevel remembers a level that triggered a performance escape:
	// descents stop above it while the verdict is in force. Re-exploring
	// a bad level is expensive (the down-transition invalidates the
	// newly-faulty blocks, and hot ones must be refetched), so the
	// verdict persists until the workload's observed behaviour changes —
	// badMissRate records the miss rate at verdict time, and a
	// significant shift (a phase change) clears it.
	badLevel    int
	badActive   bool
	badMissRate float64
	// graceLeft suppresses the escape check for this many intervals
	// after a descent: the first post-descent window is dominated by the
	// one-time refill of invalidated blocks, and punishing that
	// transient would latch every level as bad.
	graceLeft int
	// lastTickCycle is the cycle count at the previous interval
	// boundary, used to measure each window's wall-clock span.
	lastTickCycle uint64
	// lastRefillMisses is the controller's refill-miss count at the
	// previous boundary; the delta identifies how much of a window's
	// miss traffic was one-time refill rather than damage.
	lastRefillMisses uint64
	// maxSlowdown tracks the largest measured slowdown since the last
	// recalibration; a clean super-interval (max well under the escape
	// budget) lets the policy skip the periodic return to the SPCS
	// voltage, avoiding the invalidate-refill churn that a pointless
	// ascent/descent cycle would cause.
	maxSlowdown float64

	// Decision counters for reports.
	Ups, Downs, Resets int
}

// phaseChangeRelDiff is the relative miss-rate change that counts as a
// phase change and re-enables exploration of a bad level. It must be
// below 1.0 so that a drop to a near-zero miss rate (diff == badMissRate)
// still qualifies.
const phaseChangeRelDiff = 0.6

// phaseChangeAbsDiff is the absolute miss-rate change floor for the same
// detector, so near-zero miss rates do not trigger on noise.
const phaseChangeAbsDiff = 0.02

// NewDPCS attaches the dynamic policy to a controller, which must have
// a fault map to move across.
func NewDPCS(cfg DPCSConfig, ctrl *Controller) (*DPCSPolicy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctrl.Map == nil {
		return nil, fmt.Errorf("core: DPCS needs a controller with a fault map")
	}
	if cfg.SPCSLevel > ctrl.Levels.N() {
		return nil, fmt.Errorf("core: SPCS level %d exceeds %d levels", cfg.SPCSLevel, ctrl.Levels.N())
	}
	return &DPCSPolicy{cfg: cfg, ctrl: ctrl}, nil
}

// Start performs DPCS's initial transition to the SPCS voltage (the
// policy begins at its ceiling and works downward as Listing 1 allows).
// The decision machinery stays dormant until Arm is called.
func (d *DPCSPolicy) Start(sink func(addr uint64)) {
	d.ctrl.Transition(d.cfg.SPCSLevel, 0, sink)
}

// record writes one dpcs.decision instant under the controller's span:
// the decision and the sampling-window state it was made from. With no
// span it records nothing and allocates nothing.
func (d *DPCSPolicy) record(now uint64, dec Decision, interval int, mr, caat float64) {
	sp := d.ctrl.span.Child("dpcs.decision")
	if sp == nil {
		return
	}
	sp.SetStr("cache", d.ctrl.Cache.Name())
	sp.SetUint("cycle", now)
	sp.SetStr("decision", dec.String())
	sp.SetInt("interval", int64(interval))
	sp.SetFloat("miss_rate", mr)
	sp.SetFloat("caat", caat)
	sp.SetFloat("naat", d.naat)
	sp.EndInstant()
}

// Arm activates the decision machinery, marking the current statistics
// as the first interval's start and scheduling the first decision on
// the controller. Simulators call it after cache warm-up (mirroring the
// paper's gem5 fast-forward before detailed simulation) so the first
// NAAT sample reflects warm caches rather than cold-start compulsory
// misses.
func (d *DPCSPolicy) Arm(now uint64) {
	d.statsAtMark = d.ctrl.Cache.Stats()
	d.ctrl.nextDecision = d.statsAtMark.Accesses + d.cfg.Interval
	d.intervalCount = 0
	d.lastTickCycle = now
}

// aat estimates the average access time from an interval's stats.
func (d *DPCSPolicy) aat(s cache.Stats) float64 {
	if s.Accesses == 0 {
		return d.cfg.HitCycles
	}
	miss := float64(s.Misses) / float64(s.Accesses)
	return d.cfg.HitCycles + miss*d.cfg.MissPenaltyCycles
}

// amortisedPenalty is the transition penalty spread over one interval of
// accesses, in cycles per access, making it comparable with CAAT/NAAT.
func (d *DPCSPolicy) amortisedPenalty() float64 {
	tp := 2*uint64(d.ctrl.Cache.Sets()) + d.ctrl.VoltagePenaltyCycles
	return float64(tp) / float64(d.cfg.Interval)
}

// Tick runs the policy after a cache access. now is the current cycle.
// If the access count has reached the scheduled interval boundary the
// policy makes its Listing-1 decision, records it (one dpcs.decision
// instant when the controller has a span) and schedules the next one;
// any resulting transition's stall cycles are returned for the caller to
// add to execution time (zero otherwise). Between boundaries the policy
// is provably quiescent: it holds no per-access state (energy and
// time-at-level integrate lazily in the controller's AdvanceTo), so
// simulators gate Tick behind Controller.Due and skip the call on the
// (vastly more common) negative. Tick re-checks Due itself, so calling
// it without the gate is merely slower, never different.
func (d *DPCSPolicy) Tick(now uint64, sink func(addr uint64)) (stall uint64) {
	if !d.ctrl.Due() {
		return 0
	}
	cur := d.ctrl.Cache.Stats()
	window := cur.Sub(d.statsAtMark)
	d.statsAtMark = cur
	d.ctrl.nextDecision = cur.Accesses + d.cfg.Interval
	windowCycles := now - d.lastTickCycle
	d.lastTickCycle = now
	refills := d.ctrl.RefillMisses() - d.lastRefillMisses
	d.lastRefillMisses = d.ctrl.RefillMisses()
	if d.cfg.Ablate.NoRefillClassification {
		refills = 0
	}
	// Damage-only view of the window: misses minus one-time refills.
	damage := window
	if damage.Misses >= refills {
		damage.Misses -= refills
	} else {
		damage.Misses = 0
	}
	mr := float64(window.Misses) / float64(maxU64(window.Accesses, 1))
	caat := d.aat(damage)
	interval := d.intervalCount

	dec := DecisionNone
	switch {
	case d.intervalCount == 0:
		// First interval of a super-interval: sample NAAT, but only when
		// actually at the SPCS voltage (a skipped recalibration keeps
		// the previous estimate).
		if d.ctrl.Level() == d.cfg.SPCSLevel {
			d.naat = d.aat(window)
			d.naatMr = mr
			dec = DecisionCalibrate
		}
		d.intervalCount++
	case d.intervalCount == d.cfg.SuperInterval-1:
		// Recalibration: return to the SPCS voltage — unless the whole
		// super-interval ran without meaningful degradation AND the
		// workload is stationary (current miss rate close to the one
		// NAAT was calibrated against), in which case the round trip
		// would only churn the cache contents.
		mrDiff := mr - d.naatMr
		if mrDiff < 0 {
			mrDiff = -mrDiff
		}
		// Stationary unless the miss rate moved by both an absolute and
		// a relative margin (same scale as the phase-change detector).
		stationary := !(mrDiff > phaseChangeAbsDiff && mrDiff > 0.5*d.naatMr)
		if d.ctrl.Level() != d.cfg.SPCSLevel {
			if d.maxSlowdown >= d.cfg.HighThreshold/2 || !stationary || d.cfg.Ablate.NoSkipReset {
				res := d.ctrl.Transition(d.cfg.SPCSLevel, now, sink)
				stall = res.PenaltyCycles
				d.Resets++
				dec = DecisionReset
			} else {
				dec = DecisionSkipReset
			}
		}
		d.maxSlowdown = 0
		d.intervalCount = 0
		d.holdUntilReset = false
	default:
		caatRaw := d.aat(window)
		// Refresh the NAAT estimate whenever the whole interval ran at
		// the SPCS voltage (an exponentially weighted moving average),
		// so a cold or perturbed first sample cannot go stale for a
		// whole super-interval.
		if d.ctrl.Level() == d.cfg.SPCSLevel {
			d.naat = 0.5*d.naat + 0.5*caat
			d.naatMr = 0.5*d.naatMr + 0.5*mr
		}
		// Phase-change detector: a large (2x) shift in the observed miss
		// rate invalidates the remembered bad-level verdict.
		if d.badActive {
			diff := mr - d.badMissRate
			if diff < 0 {
				diff = -diff
			}
			if diff > phaseChangeAbsDiff && diff > phaseChangeRelDiff*d.badMissRate {
				d.badActive = false
			}
		}
		// Measured global slowdown attributable to this cache over the
		// window: extra access cycles relative to the window's span.
		slowdown := 0.0
		if windowCycles > 0 && caat > d.naat {
			slowdown = (caat - d.naat) * float64(window.Accesses) / float64(windowCycles)
		}
		if d.ctrl.Level() != d.cfg.SPCSLevel && slowdown > d.maxSlowdown && d.graceLeft == 0 {
			d.maxSlowdown = slowdown
		}
		// Going down pays the transition penalty (amortised over the
		// interval) before any savings accrue, so the down decision
		// includes it.
		downRef := (1 + d.cfg.LowThreshold) * (d.naat + d.amortisedPenalty())
		floor := 1
		if d.badActive && d.badLevel >= floor && !d.cfg.Ablate.NoBadLevelMemory {
			floor = d.badLevel + 1
		}
		hold := d.holdUntilReset && !d.cfg.Ablate.NoHoldLatch
		switch {
		case d.graceLeft > 0:
			d.graceLeft--
			dec = DecisionHold
		case slowdown > d.cfg.HighThreshold && d.ctrl.Level() < d.cfg.SPCSLevel:
			d.badLevel = d.ctrl.Level()
			d.badActive = true
			d.badMissRate = mr
			res := d.ctrl.Transition(d.ctrl.Level()+1, now, sink)
			stall = res.PenaltyCycles
			d.Ups++
			d.holdUntilReset = true
			dec = DecisionUp
		case caatRaw < downRef && d.ctrl.Level() > floor && !hold:
			res := d.ctrl.Transition(d.ctrl.Level()-1, now, sink)
			stall = res.PenaltyCycles
			d.Downs++
			// The descent invalidated blocks; their demand refills smear
			// over the following windows and must not be mistaken for
			// steady-state degradation, so the grace period scales with
			// the invalidation count.
			d.graceLeft = 1
			dec = DecisionDown
		case caatRaw < downRef && d.ctrl.Level() > floor && hold:
			// The descent condition held but the post-escape latch
			// suppressed it.
			dec = DecisionHold
		}
		d.intervalCount++
	}
	d.record(now, dec, interval, mr, caat)
	return stall
}

// NAAT returns the most recent nominal average access time estimate.
func (d *DPCSPolicy) NAAT() float64 { return d.naat }

// maxU64 returns the larger of a and b.
func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
