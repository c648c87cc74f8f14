// Package core implements the paper's contribution: the power/capacity
// scaling (PCS) cache architecture. It glues the mechanism together —
// the compressed multi-VDD fault map (internal/faultmap), per-block
// power gating of faulty blocks, and global data-array voltage scaling
// over a functional cache (internal/cache) with energy accounting from
// the analytical power model (internal/cacti) — and provides the two
// policies:
//
//   - SPCS: statically run at the lowest voltage keeping ≥99 % of blocks
//     non-faulty (and every set usable), set once for the whole runtime.
//   - DPCS: dynamically step the voltage between the yield-constrained
//     floor (VDD1) and the SPCS voltage (VDD2) based on sampled average
//     access time (Listing 1), with the paper's transition procedure
//     (Listing 2) handling writebacks, invalidations and Faulty-bit
//     updates at every voltage change.
package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cache"
	"repro/internal/cacti"
	"repro/internal/faultmap"
	"repro/internal/obs"
)

// Mode selects the cache management policy.
type Mode int

const (
	// Baseline is a conventional cache fixed at nominal VDD with no
	// fault tolerance (and no PCS overheads).
	Baseline Mode = iota
	// SPCS is the static power/capacity scaling policy.
	SPCS
	// DPCS is the dynamic power/capacity scaling policy.
	DPCS
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Baseline:
		return "baseline"
	case SPCS:
		return "SPCS"
	case DPCS:
		return "DPCS"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode resolves a mode name as String prints it, in any case and
// with surrounding space ignored.
func ParseMode(name string) (Mode, error) {
	for m := Baseline; m <= DPCS; m++ {
		if strings.EqualFold(strings.TrimSpace(name), m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q (want baseline, SPCS or DPCS)", name)
}

// TransitionResult reports what one voltage transition did.
type TransitionResult struct {
	// FromLevel and ToLevel are 1-based VDD levels.
	FromLevel, ToLevel int
	// Writebacks counts dirty valid blocks written back because they
	// become faulty at the new voltage.
	Writebacks int
	// Invalidations counts valid blocks invalidated.
	Invalidations int
	// NewFaulty and Recovered count Faulty bits set and cleared.
	NewFaulty, Recovered int
	// PenaltyCycles is the total stall the transition costs: two cycles
	// per set (read, process and rewrite metadata through the tag array)
	// plus the voltage-settling penalty.
	PenaltyCycles uint64
}

// Controller manages one PCS-enabled cache instance: its fault map, its
// current voltage level, and its energy accounting. A Controller without
// a fault map (a baseline cache) stays at the top level.
type Controller struct {
	Cache  *cache.Cache
	Map    *faultmap.Map // nil for a baseline cache
	Levels faultmap.Levels
	Power  *cacti.Model
	// VoltagePenaltyCycles is the data-array supply settling time added
	// to every transition (Table 2's "+20" / "+40").
	VoltagePenaltyCycles uint64
	// ClockHz converts cycles to seconds for static-energy integration.
	ClockHz float64

	level     int // current 1-based VDD level
	lastCycle uint64
	// nextDecision is the access count at which the policy makes its
	// next decision (see Due). It stays at the maximum until a policy
	// that decides at run time schedules one.
	nextDecision uint64

	// Per-access dynamic energies at the current level, cached so the
	// access hot path avoids recomputing cacti's power-law model (a
	// math.Pow per access); refreshed by refreshAccessEnergy whenever
	// the level changes. The cached values are the exact floats
	// Power.AccessEnergy would return, so accounting is bit-identical.
	readAccessJ  float64
	writeAccessJ float64

	// Fault-map level deltas: the blocks with FM > 0, in ascending
	// block-index order, paired with their FM values. By the fault
	// inclusion property a transition from level f to level n only
	// changes the Faulty bits of blocks whose FM lies in [n, f-1]
	// (descent) or [f, n-1] (ascent), so Transition scans this short
	// list instead of every set×way. Built once in NewController — the
	// fault map must not be mutated afterwards (all SetFM/SetFromVmin
	// calls happen at construction time in this codebase).
	deltaIdx []int32
	deltaFM  []uint8
	// faultSynced is false until the first Transition: the cache starts
	// with every Faulty bit clear regardless of level, so the first
	// call syncs from an effective level N+1 (marking every block with
	// FM ≥ next), exactly as the full Listing 2 walk would.
	faultSynced bool

	// Energy accounting (joules).
	staticJ     float64
	dynamicJ    float64
	transitionJ float64

	// Transition bookkeeping.
	transitions       int
	transitionCycles  uint64
	transitionWBs     uint64
	timeAtLevelCycles []uint64 // indexed by level-1

	// obsSink, when non-nil, receives one DecisionTransition event per
	// Transition call; see SetSink.
	obsSink obs.PolicySink

	// pendingRefill records the block addresses a transition invalidated
	// whose next miss is a one-time refill rather than steady-state
	// damage; refillMisses counts how many such misses have occurred.
	// The policy uses the distinction to avoid mistaking the refill
	// burst after a descent for the lower voltage hurting. (Hardware
	// would approximate this with a small Bloom filter or region
	// counters; the simulator tracks it exactly.)
	pendingRefill map[uint64]struct{}
	refillMisses  uint64
}

// NewController wires a cache, fault map and power model together.
// For a baseline cache pass a nil map; the controller pins the top level.
func NewController(c *cache.Cache, m *faultmap.Map, levels faultmap.Levels, power *cacti.Model, clockHz float64, voltagePenalty uint64) (*Controller, error) {
	if c == nil || power == nil {
		return nil, fmt.Errorf("core: nil cache or power model")
	}
	if levels.N() == 0 {
		return nil, fmt.Errorf("core: empty voltage levels")
	}
	if m != nil {
		if m.NumBlocks() != c.NumBlocks() {
			return nil, fmt.Errorf("core: fault map has %d blocks, cache has %d",
				m.NumBlocks(), c.NumBlocks())
		}
		if m.Levels().N() != levels.N() {
			return nil, fmt.Errorf("core: fault map encodes %d levels, controller given %d",
				m.Levels().N(), levels.N())
		}
	}
	if clockHz <= 0 {
		return nil, fmt.Errorf("core: non-positive clock %v", clockHz)
	}
	ct := &Controller{
		Cache:                c,
		Map:                  m,
		Levels:               levels,
		Power:                power,
		VoltagePenaltyCycles: voltagePenalty,
		ClockHz:              clockHz,
		level:                levels.N(),
		nextDecision:         math.MaxUint64,
		timeAtLevelCycles:    make([]uint64, levels.N()),
	}
	if m != nil {
		for b, n := 0, m.NumBlocks(); b < n; b++ {
			if fm := m.FM(b); fm > 0 {
				ct.deltaIdx = append(ct.deltaIdx, int32(b))
				ct.deltaFM = append(ct.deltaFM, uint8(fm))
			}
		}
	}
	ct.refreshAccessEnergy()
	return ct, nil
}

// refreshAccessEnergy recomputes the cached per-access dynamic energies
// for the current level.
func (ct *Controller) refreshAccessEnergy() {
	ct.readAccessJ = ct.Power.AccessEnergy(ct.VDD(), false).TotalPJ * 1e-12
	ct.writeAccessJ = ct.Power.AccessEnergy(ct.VDD(), true).TotalPJ * 1e-12
}

// SetSink attaches the cache's telemetry sink. Every subsequent
// Transition call emits exactly one DecisionTransition event, so
// counting those events reconciles with Transitions() and summing their
// Writebacks fields with TransitionWritebacks(); the cache's DPCS policy
// records its interval decisions here too. A nil sink disables emission.
func (ct *Controller) SetSink(s obs.PolicySink) { ct.obsSink = s }

// Due reports whether the access count has reached the next scheduled
// decision, the only point at which the cache's policy can act. A
// policy that never decides at run time (baseline, SPCS) schedules
// none, so its controller is never due. Simulators gate every policy
// Tick behind Due on the per-access path, so it must stay inlinable.
func (ct *Controller) Due() bool { return ct.Cache.Accesses() >= ct.nextDecision }

// Level returns the current 1-based VDD level.
func (ct *Controller) Level() int { return ct.level }

// VDD returns the current data-array supply voltage.
func (ct *Controller) VDD() float64 { return ct.Levels.Volts(ct.level) }

// ActiveFraction returns the fraction of blocks not power-gated at the
// current level.
func (ct *Controller) ActiveFraction() float64 {
	return 1 - float64(ct.Cache.FaultyCount())/float64(ct.Cache.NumBlocks())
}

// AdvanceTo integrates static power up to the given cycle. Callers must
// invoke it with non-decreasing cycle counts; transitions and final
// accounting call it implicitly.
func (ct *Controller) AdvanceTo(cycle uint64) {
	if cycle < ct.lastCycle {
		panic(fmt.Sprintf("core: time went backwards: %d -> %d", ct.lastCycle, cycle))
	}
	dc := cycle - ct.lastCycle
	if dc == 0 {
		return
	}
	dt := float64(dc) / ct.ClockHz
	p := ct.Power.StaticPower(ct.VDD(), ct.ActiveFraction())
	ct.staticJ += p.TotalW * dt
	ct.timeAtLevelCycles[ct.level-1] += dc
	ct.lastCycle = cycle
}

// OnAccess charges the dynamic energy of one access at the current VDD.
func (ct *Controller) OnAccess(write bool) {
	if write {
		ct.dynamicJ += ct.writeAccessJ
	} else {
		ct.dynamicJ += ct.readAccessJ
	}
}

// OnFill charges the dynamic energy of a block fill (a write of the
// whole block into the data array).
func (ct *Controller) OnFill() {
	ct.dynamicJ += ct.writeAccessJ
}

// Transition implements the paper's Listing 2: move the cache to the
// 1-based level next, writing back dirty valid blocks that become
// faulty (via sink), invalidating them, and updating every Faulty bit by
// comparing the intended VDD code against each block's FM bits. The
// static energy up to `now` is integrated first; the transition's own
// stall is PenaltyCycles, which the caller adds to execution time (and
// subsequent AdvanceTo calls then charge its static energy).
func (ct *Controller) Transition(next int, now uint64, sink func(addr uint64)) TransitionResult {
	if ct.Map == nil {
		panic("core: Transition on a controller without a fault map")
	}
	if next < 1 || next > ct.Levels.N() {
		panic(fmt.Sprintf("core: transition to level %d out of 1..%d", next, ct.Levels.N()))
	}
	ct.AdvanceTo(now)
	res := TransitionResult{FromLevel: ct.level, ToLevel: next}

	// Delta walk, observationally equivalent to Listing 2's full
	// set×way metadata sweep (see DESIGN.md): by the fault inclusion
	// property a descent f→n only creates faults among blocks with
	// FM ∈ [n, f-1], and an ascent only recovers blocks with
	// FM ∈ [f, n-1]; every other Faulty bit is already correct. The
	// delta list is in ascending block-index order, so writebacks reach
	// the next level in exactly the order the full sweep emitted them.
	// The simulated hardware still sweeps every set, which is what
	// PenaltyCycles and the transition energy below charge for.
	from := ct.level
	if !ct.faultSynced {
		// First transition: every Faulty bit is still clear, so sync as
		// if descending from a level above the top (marking all blocks
		// with FM ≥ next), exactly as the full sweep would.
		from = ct.Levels.N() + 1
		ct.faultSynced = true
	}
	sets, ways := ct.Cache.Sets(), ct.Cache.Ways()
	if next < from {
		lo, hi := uint8(next), uint8(from-1)
		for i, b := range ct.deltaIdx {
			if fm := ct.deltaFM[i]; fm < lo || fm > hi {
				continue
			}
			s, w := int(b)/ways, int(b)%ways
			meta := ct.Cache.Meta(s, w)
			if meta.Valid {
				if need, addr := ct.Cache.InvalidateFrame(s, w); need {
					res.Writebacks++
					if sink != nil {
						sink(addr)
					}
				}
				res.Invalidations++
				if ct.pendingRefill == nil {
					ct.pendingRefill = make(map[uint64]struct{})
				}
				ct.pendingRefill[meta.Addr] = struct{}{}
			}
			if !meta.Faulty {
				res.NewFaulty++
			}
			ct.Cache.SetFaulty(s, w, true)
		}
	} else if next > from {
		lo, hi := uint8(from), uint8(next-1)
		for i, b := range ct.deltaIdx {
			if fm := ct.deltaFM[i]; fm < lo || fm > hi {
				continue
			}
			s, w := int(b)/ways, int(b)%ways
			if ct.Cache.Meta(s, w).Faulty {
				res.Recovered++
			}
			ct.Cache.SetFaulty(s, w, false)
		}
	}
	res.PenaltyCycles = 2*uint64(sets) + ct.VoltagePenaltyCycles

	// Transition dynamic energy: one tag-array read + one write per set
	// (metadata processing); modelled as the fixed per-access energy.
	eFixed := ct.Power.AccessEnergy(ct.Levels.Volts(next), false).FixedPJ
	ct.transitionJ += 2 * float64(sets) * eFixed * 1e-12

	ct.level = next
	ct.refreshAccessEnergy()
	ct.transitions++
	ct.transitionCycles += res.PenaltyCycles
	ct.transitionWBs += uint64(res.Writebacks)
	if ct.obsSink != nil {
		ct.obsSink.Record(obs.PolicyEvent{
			Cycle:         now,
			CacheName:     ct.Cache.Name(),
			Decision:      obs.DecisionTransition,
			FromLevel:     res.FromLevel,
			ToLevel:       res.ToLevel,
			FromVDD:       ct.Levels.Volts(res.FromLevel),
			ToVDD:         ct.Levels.Volts(res.ToLevel),
			Writebacks:    res.Writebacks,
			Invalidations: res.Invalidations,
			PenaltyCycles: res.PenaltyCycles,
		})
	}
	return res
}

// EnergyReport summarises the controller's accumulated energy.
type EnergyReport struct {
	StaticJ     float64
	DynamicJ    float64
	TransitionJ float64
	TotalJ      float64
}

// Energy finalises static integration at cycle `now` and returns the
// accumulated energy.
func (ct *Controller) Energy(now uint64) EnergyReport {
	ct.AdvanceTo(now)
	return EnergyReport{
		StaticJ:     ct.staticJ,
		DynamicJ:    ct.dynamicJ,
		TransitionJ: ct.transitionJ,
		TotalJ:      ct.staticJ + ct.dynamicJ + ct.transitionJ,
	}
}

// NoteMiss classifies a demand miss: if the missed block was invalidated
// by an earlier voltage transition, the miss is counted as a one-time
// refill. Simulators call it for every miss at this cache.
func (ct *Controller) NoteMiss(blockAddr uint64) {
	if ct.pendingRefill == nil {
		return
	}
	if _, ok := ct.pendingRefill[blockAddr]; ok {
		delete(ct.pendingRefill, blockAddr)
		ct.refillMisses++
	}
}

// RefillMisses returns the cumulative count of misses classified as
// transition-induced refills.
func (ct *Controller) RefillMisses() uint64 { return ct.refillMisses }

// Transitions returns how many voltage transitions have occurred.
func (ct *Controller) Transitions() int { return ct.transitions }

// TransitionCycles returns the total stall cycles spent in transitions.
func (ct *Controller) TransitionCycles() uint64 { return ct.transitionCycles }

// TransitionWritebacks returns dirty blocks written back by transitions.
func (ct *Controller) TransitionWritebacks() uint64 { return ct.transitionWBs }

// TimeAtLevelCycles returns the cycles spent at each level (index 0 =
// level 1), as integrated so far.
func (ct *Controller) TimeAtLevelCycles() []uint64 {
	out := make([]uint64, len(ct.timeAtLevelCycles))
	copy(out, ct.timeAtLevelCycles)
	return out
}
