// Package multicore extends the evaluation to the paper's stated future
// work: "a broader design space exploration involving multi-core systems
// with consideration of cache coherence". It models N cores with private
// split L1 caches over one shared L2, all managed by the same
// power/capacity-scaling controllers as the single-core simulator, with
// an MSI-style invalidation protocol (directory at the L2) keeping the
// private L1Ds coherent.
//
// Timing uses the same blocking-miss accounting as internal/cpusim, per
// core; the run's wall-clock is the slowest core, and the shared L2's
// static energy integrates over that global time. The interesting
// questions this substrate answers: does DPCS's voltage ladder still pay
// when the L2 is contended by several working sets, and what do
// coherence invalidations do to the transition procedure's writeback
// traffic.
//
// # Concurrency contract
//
// The cores of one System share the L2 controller and the coherence
// directory, so a System is confined to one goroutine (cores are
// interleaved round-robin on a single goroutine, not parallelised).
// Parallelism happens one level up: build one System per concurrent
// Run/RunContext call — the package has no global mutable state, which
// is what lets internal/runner fan multicore jobs out across workers.
//
// Each core's L1I and L1D and the shared L2 come from cpusim.NewLevel,
// the level builder the single-core simulator uses. Multicore runs
// without the per-worker arenas of DESIGN.md §13: a System keeps N L1
// pairs of one cache configuration live at the same time, and an arena
// holds one cache per configuration. It does share the memoized
// CACTI/fault-model statics, which are immutable after first compute
// and safe to share across goroutines.
package multicore

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/obs/tracez"
	"repro/internal/trace"
)

// Config parameterises a multi-core run.
type Config struct {
	// System is the per-core cache configuration (Config A or B); every
	// core gets private L1I/L1D of this shape, and one shared L2.
	System cpusim.SystemConfig
	// Cores is the number of cores (>= 1).
	Cores int
	// SharedBytes is the size of the region all cores share; data
	// accesses land there with probability SharedFrac, giving the
	// coherence protocol something to do.
	SharedBytes uint64
	// SharedFrac is the probability a data access targets shared data.
	SharedFrac float64
	// CoherencePenaltyCycles is charged to a writer that must
	// invalidate remote copies.
	CoherencePenaltyCycles uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("multicore: %d cores", c.Cores)
	}
	if c.SharedFrac < 0 || c.SharedFrac > 1 {
		return fmt.Errorf("multicore: shared fraction %v", c.SharedFrac)
	}
	if c.SharedFrac > 0 && c.SharedBytes == 0 {
		return fmt.Errorf("multicore: shared fraction without a shared region")
	}
	return nil
}

// DefaultConfig returns a 4-core Config-A system with a modest shared
// region.
func DefaultConfig() Config {
	return Config{
		System:                 cpusim.ConfigA(),
		Cores:                  4,
		SharedBytes:            1 << 20,
		SharedFrac:             0.10,
		CoherencePenaltyCycles: 20,
	}
}

// directory tracks which cores may hold each block in their private
// L1Ds. It over-approximates (clean evictions are not reported), which
// is safe: invalidations of absent blocks are no-ops.
type directory struct {
	sharers map[uint64]uint32 // block address -> core bitmask
}

func newDirectory() *directory {
	return &directory{sharers: make(map[uint64]uint32)}
}

func (d *directory) addSharer(addr uint64, coreID int) {
	d.sharers[addr] |= 1 << uint(coreID)
}

// othersHolding returns the cores other than coreID that may hold addr,
// and clears them from the directory (they are about to be invalidated).
func (d *directory) othersHolding(addr uint64, coreID int) uint32 {
	mask := d.sharers[addr] &^ (1 << uint(coreID))
	if mask != 0 {
		d.sharers[addr] = 1 << uint(coreID)
	}
	return mask
}

func (d *directory) drop(addr uint64, coreID int) {
	if m, ok := d.sharers[addr]; ok {
		m &^= 1 << uint(coreID)
		if m == 0 {
			delete(d.sharers, addr)
		} else {
			d.sharers[addr] = m
		}
	}
}

// coreState is one core's private hierarchy and clock.
type coreState struct {
	id          int
	gen         trace.Generator
	pipe        *trace.Pipe // gen's block feed, built by run
	l1i, l1d    cpusim.Level
	invalidated uint64
	cycles      uint64
	instrs      uint64
	// dataBase relocates this core's private data region.
	dataBase uint64
}

// CoreResult summarises one core's run.
type CoreResult struct {
	CoreID       int
	Instructions uint64
	Cycles       uint64
	IPC          float64
	L1I, L1D     cache.Stats
	L1EnergyJ    float64
	Invalidated  uint64 // blocks lost to remote writers
}

// Result is the outcome of a multi-core run.
type Result struct {
	Mode         core.Mode
	Cores        []CoreResult
	GlobalCycles uint64
	Seconds      float64
	L2           cache.Stats
	L2EnergyJ    float64
	// TotalCacheEnergyJ includes every L1 and the shared L2.
	TotalCacheEnergyJ float64
	// CoherenceInvalidations counts L1D blocks invalidated by remote
	// writers.
	CoherenceInvalidations uint64
	// L2Transitions counts shared-L2 voltage transitions.
	L2Transitions int
}

// System is a prepared multi-core simulator.
type System struct {
	cfg    Config
	mode   core.Mode
	cores  []*coreState
	l2     cpusim.Level
	dir    *directory
	global uint64 // monotone global clock for the shared L2
	cohInv uint64
	// toL2 is writebackToL2 bound once, so handing it to a policy's Tick
	// through the cpusim.Policy interface does not allocate per decision.
	toL2 func(addr uint64)
}

// newSystem builds the shared L2 and every core's private L1s with
// cpusim's level builder. Each level draws the fault-map stream it
// would have in a single-core system: core i's L1I and L1D those of a
// system seeded seed + i·7919, the shared L2 that of a system seeded
// seed.
func newSystem(cfg Config, mode core.Mode, w trace.Workload, seed uint64) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l2, err := cpusim.NewLevel(nil, cfg.System, mode, seed, cpusim.L2)
	if err != nil {
		return nil, err
	}
	sys := &System{cfg: cfg, mode: mode, l2: l2, dir: newDirectory()}
	sys.toL2 = sys.writebackToL2
	for i := 0; i < cfg.Cores; i++ {
		cs := &coreState{id: i, dataBase: uint64(i+1) << 33} // 8 GiB apart: private regions
		coreSeed := seed + uint64(i)*7919
		if cs.l1i, err = cpusim.NewLevel(nil, cfg.System, mode, coreSeed, cpusim.L1I); err != nil {
			return nil, err
		}
		if cs.l1d, err = cpusim.NewLevel(nil, cfg.System, mode, coreSeed, cpusim.L1D); err != nil {
			return nil, err
		}
		if cs.gen, err = trace.New(w, seed+uint64(i)*104729); err != nil {
			return nil, err
		}
		sys.cores = append(sys.cores, cs)
	}
	return sys, nil
}

// start makes every level's initial transition at cycle 0.
func (s *System) start() {
	for _, c := range s.cores {
		c.l1i.Pol.Start(s.toL2)
		c.l1d.Pol.Start(s.toL2)
	}
	s.l2.Pol.Start(nil)
}

// arm starts every level's run-time decisions after warm-up.
func (s *System) arm() {
	for _, c := range s.cores {
		c.l1i.Pol.Arm(c.cycles)
		c.l1d.Pol.Arm(c.cycles)
	}
	s.l2.Pol.Arm(s.global)
}

// bump advances the monotone global clock used by the shared L2.
func (s *System) bump(coreCycles uint64) {
	if coreCycles > s.global {
		s.global = coreCycles
	}
}

func (s *System) writebackToL2(addr uint64) {
	res := s.l2.Ctrl.Cache.Access(addr, true)
	s.l2.Ctrl.OnAccess(true)
	if res.Fill && !res.Hit {
		s.l2.Ctrl.OnFill()
	}
}

// accessL2 performs a demand access on the shared L2 on behalf of a
// core, returning the stall.
func (s *System) accessL2(c *coreState, addr uint64, write bool) uint64 {
	stall := s.cfg.System.L2.HitCycles
	res := s.l2.Ctrl.Cache.Access(addr, write)
	s.l2.Ctrl.OnAccess(write)
	if !res.Hit {
		s.l2.Ctrl.NoteMiss(addr &^ uint64(s.l2.Ctrl.Cache.BlockBytes()-1))
		stall += s.cfg.System.MemCycles
		if res.Fill {
			s.l2.Ctrl.OnFill()
		}
	}
	// A timed L2 policy reads the global clock at its decisions, so
	// every access advances it (skipping a bump would change the `now` a
	// later Tick observes). Under a static policy nothing reads it and
	// it stays at 0, so the L2's static energy integrates over the
	// slowest core's measured cycles (see drive).
	if s.l2.Timed {
		s.bump(c.cycles)
	}
	if s.l2.Ctrl.Due() {
		s.l2.Pol.Tick(s.global, nil)
	}
	return stall
}

// translate maps a generator data address into the core's private region
// or the shared region. The generator's low bits select within the
// region; the decision reuses address entropy so it is deterministic.
func (s *System) translate(c *coreState, addr uint64) uint64 {
	if s.cfg.SharedFrac > 0 {
		// Hash the block address to decide shared vs private; a cheap
		// multiplicative hash keeps the decision stable per block.
		h := (addr >> 6) * 0x9e3779b97f4a7c15
		if float64(h>>40)/float64(1<<24) < s.cfg.SharedFrac {
			return addr % s.cfg.SharedBytes // shared region at 0
		}
	}
	return c.dataBase + addr
}

// accessL1D performs a data access with coherence.
func (s *System) accessL1D(c *coreState, addr uint64, write bool) uint64 {
	blk := addr &^ uint64(c.l1d.Ctrl.Cache.BlockBytes()-1)
	var stall uint64
	if write {
		// Invalidate remote copies (MSI: writer gains exclusivity).
		if mask := s.dir.othersHolding(blk, c.id); mask != 0 {
			for _, other := range s.cores {
				if mask&(1<<uint(other.id)) == 0 {
					continue
				}
				if set, way, ok := other.l1d.Ctrl.Cache.FindFrame(blk); ok {
					if need, a := other.l1d.Ctrl.Cache.InvalidateFrame(set, way); need {
						s.writebackToL2(a)
					}
					other.invalidated++
					s.cohInv++
				}
			}
			stall += s.cfg.CoherencePenaltyCycles
		}
	}
	// Memoized repeat-block hit: identical observable effects to the
	// probe-loop hit below (including the directory note), with the set
	// probe skipped. Coherence invalidations drop the memo, so a block
	// stolen by a remote writer can never fast-hit.
	if c.l1d.Ctrl.Cache.FastHit(addr, write) {
		c.l1d.Ctrl.OnAccess(write)
		s.dir.addSharer(blk, c.id)
		if c.l1d.Ctrl.Due() {
			c.cycles += c.l1d.Pol.Tick(c.cycles, s.toL2)
		}
		return stall
	}
	res := c.l1d.Ctrl.Cache.AccessFull(addr, write)
	c.l1d.Ctrl.OnAccess(write)
	if res.Hit {
		s.dir.addSharer(blk, c.id)
	} else {
		c.l1d.Ctrl.NoteMiss(blk)
		if res.Fill {
			c.l1d.Ctrl.OnFill()
			s.dir.addSharer(blk, c.id)
		}
		if res.Writeback {
			s.dir.drop(res.WritebackAddr, c.id)
			s.writebackToL2(res.WritebackAddr)
		}
		stall += s.accessL2(c, addr, write)
	}
	if c.l1d.Ctrl.Due() {
		c.cycles += c.l1d.Pol.Tick(c.cycles, s.toL2)
	}
	return stall
}

// accessL1I performs an instruction fetch (no coherence: code is
// read-only). Sequential fetch runs make the memoized repeat-block hit
// the dominant outcome.
func (s *System) accessL1I(c *coreState, addr uint64) uint64 {
	if c.l1i.Ctrl.Cache.FastHit(addr, false) {
		c.l1i.Ctrl.OnAccess(false)
		if c.l1i.Ctrl.Due() {
			c.cycles += c.l1i.Pol.Tick(c.cycles, s.toL2)
		}
		return 0
	}
	res := c.l1i.Ctrl.Cache.AccessFull(addr, false)
	c.l1i.Ctrl.OnAccess(false)
	var stall uint64
	if !res.Hit {
		c.l1i.Ctrl.NoteMiss(addr &^ uint64(c.l1i.Ctrl.Cache.BlockBytes()-1))
		if res.Fill {
			c.l1i.Ctrl.OnFill()
		}
		if res.Writeback {
			s.writebackToL2(res.WritebackAddr)
		}
		stall = s.accessL2(c, addr, false)
	}
	if c.l1i.Ctrl.Due() {
		c.cycles += c.l1i.Pol.Tick(c.cycles, s.toL2)
	}
	return stall
}

// step executes one instruction on one core.
func (s *System) step(c *coreState, ins *trace.Instr) {
	c.cycles++
	c.instrs++
	c.cycles += s.accessL1I(c, ins.PC)
	if ins.HasMem {
		c.cycles += s.accessL1D(c, s.translate(c, ins.Addr), ins.Write)
	}
}

// Run simulates instrPerCore instructions on every core (after
// warmupPerCore), interleaving cores round-robin, and returns the
// aggregate result.
func Run(cfg Config, mode core.Mode, w trace.Workload, warmupPerCore, instrPerCore, seed uint64) (Result, error) {
	return RunContext(context.Background(), cfg, mode, w, warmupPerCore, instrPerCore, seed)
}

// ctxCheckMask throttles cancellation polling in the interleave loop:
// ctx.Err() is consulted once every 2048 round-robin sweeps.
const ctxCheckMask = 2048 - 1

// RunContext is Run with cancellation: the interleaved instruction loop
// polls ctx and abandons the simulation mid-flight with ctx's error when
// it is cancelled, so a cancelled campaign stops instead of running to
// completion.
func RunContext(ctx context.Context, cfg Config, mode core.Mode, w trace.Workload, warmupPerCore, instrPerCore, seed uint64) (Result, error) {
	parent := tracez.SpanFromContext(ctx)
	bsp := parent.Child("sim.build")
	sys, err := newSystem(cfg, mode, w, seed)
	bsp.SetInt("cores", int64(cfg.Cores))
	bsp.SetStr("mode", mode.String())
	bsp.End()
	if err != nil {
		return Result{}, err
	}
	return sys.run(ctx, warmupPerCore, instrPerCore)
}

// run drives a prepared multi-core system through warm-up and
// measurement, feeding every core from its own trace.Pipe.
func (sys *System) run(ctx context.Context, warmupPerCore, instrPerCore uint64) (Result, error) {
	for _, c := range sys.cores {
		c.pipe = trace.NewPipe(trace.AsBlock(c.gen), nil)
	}
	return sys.drive(ctx, warmupPerCore, instrPerCore, sys.interleave)
}

// interleave runs the next n round-robin sweeps, one instruction per
// core per sweep in core order, off the cores' pipes. Each core's
// stream is its own separately-seeded generator, and everything the
// cores share — the coherence directory, the shared L2 — is touched in
// this fixed sweep order, so the simulation is a pure function of
// (config, seeds). TestShardedMatchesSerial pins it against a
// per-instruction reference interleave.
func (sys *System) interleave(ctx context.Context, n uint64) error {
	for k := uint64(0); k < n; k++ {
		if k&ctxCheckMask == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		for _, c := range sys.cores {
			p := c.pipe
			if p.Pos == len(p.Cur) {
				p.Refill()
			}
			sys.step(c, &p.Cur[p.Pos])
			p.Pos++
		}
	}
	return nil
}

// drive runs the warm-up and the measured window, each through
// interleave, which runs the next n sweeps over the cores, and returns
// the aggregate result.
func (sys *System) drive(ctx context.Context, warmupPerCore, instrPerCore uint64, interleave func(ctx context.Context, n uint64) error) (Result, error) {
	parent := tracez.SpanFromContext(ctx)
	cfg := sys.cfg
	mode := sys.mode
	sys.start()

	wsp := parent.Child("sim.warmup")
	wsp.SetUint("instructions_per_core", warmupPerCore)
	if err := interleave(ctx, warmupPerCore); err != nil {
		wsp.End()
		return Result{}, err
	}
	wsp.End()
	sys.arm()

	// Measurement marks.
	startCycles := make([]uint64, len(sys.cores))
	startL1 := make([][2]cache.Stats, len(sys.cores))
	startE := make([]float64, len(sys.cores))
	startCoreInv := make([]uint64, len(sys.cores))
	for i, c := range sys.cores {
		startCycles[i] = c.cycles
		startL1[i] = [2]cache.Stats{c.l1i.Ctrl.Cache.Stats(), c.l1d.Ctrl.Cache.Stats()}
		startE[i] = c.l1i.Ctrl.Energy(c.cycles).TotalJ + c.l1d.Ctrl.Energy(c.cycles).TotalJ
		startCoreInv[i] = c.invalidated
	}
	l2Start := sys.l2.Ctrl.Cache.Stats()
	l2StartE := sys.l2.Ctrl.Energy(sys.global).TotalJ
	l2StartTrans := sys.l2.Ctrl.Transitions()
	startInv := sys.cohInv
	globalStart := sys.global

	msp := parent.Child("sim.measure")
	msp.SetUint("instructions_per_core", instrPerCore)
	if err := interleave(ctx, instrPerCore); err != nil {
		msp.End()
		return Result{}, err
	}
	msp.End()

	esp := parent.Child("sim.energy")
	res := Result{Mode: mode}
	var maxCycles uint64
	for i, c := range sys.cores {
		cyc := c.cycles - startCycles[i]
		if cyc > maxCycles {
			maxCycles = cyc
		}
		e := c.l1i.Ctrl.Energy(c.cycles).TotalJ + c.l1d.Ctrl.Energy(c.cycles).TotalJ - startE[i]
		cr := CoreResult{
			CoreID:       i,
			Instructions: instrPerCore,
			Cycles:       cyc,
			IPC:          float64(instrPerCore) / float64(cyc),
			L1I:          c.l1i.Ctrl.Cache.Stats().Sub(startL1[i][0]),
			L1D:          c.l1d.Ctrl.Cache.Stats().Sub(startL1[i][1]),
			L1EnergyJ:    e,
			Invalidated:  c.invalidated - startCoreInv[i],
		}
		res.Cores = append(res.Cores, cr)
		res.TotalCacheEnergyJ += e
	}
	res.GlobalCycles = maxCycles
	res.Seconds = float64(maxCycles) / cfg.System.ClockHz
	// Integrate the shared L2 to the end of global time.
	endGlobal := globalStart + maxCycles
	if endGlobal < sys.global {
		endGlobal = sys.global
	}
	res.L2EnergyJ = sys.l2.Ctrl.Energy(endGlobal).TotalJ - l2StartE
	res.L2 = sys.l2.Ctrl.Cache.Stats().Sub(l2Start)
	res.L2Transitions = sys.l2.Ctrl.Transitions() - l2StartTrans
	res.TotalCacheEnergyJ += res.L2EnergyJ
	res.CoherenceInvalidations = sys.cohInv - startInv
	esp.SetFloat("total_j", res.TotalCacheEnergyJ)
	esp.End()
	return res, nil
}

// ResourceCounts implements obs.ResourceCounter for the runner's
// per-job attribution: shared-L2 voltage transitions plus writebacks
// from every private L1 and the L2.
func (r Result) ResourceCounts() (transitions int, writebacks uint64) {
	transitions = r.L2Transitions
	writebacks = r.L2.Writebacks
	for _, c := range r.Cores {
		writebacks += c.L1I.Writebacks + c.L1D.Writebacks
	}
	return transitions, writebacks
}
