// Package multicore extends the evaluation to the paper's stated future
// work: "a broader design space exploration involving multi-core systems
// with consideration of cache coherence". It models N cores with private
// split L1 caches over one shared L2, all managed by the same
// power/capacity-scaling controllers as the single-core simulator, with
// an MSI-style invalidation protocol (directory at the L2) keeping the
// private L1Ds coherent.
//
// Each core is a cpusim.Core over the shared L2, so the demand-access
// path and its timing are cpusim's code. This package adds only what a
// single core lacks: the translation of each core's data addresses,
// the MSI directory around each data access, and the global clock a
// timed shared L2 reads. The run's wall-clock is the slowest core, and
// the shared L2's static energy integrates over that global time. The
// interesting questions this substrate answers: does DPCS's voltage
// ladder still pay when the L2 is contended by several working sets,
// and what do coherence invalidations do to the transition procedure's
// writeback traffic.
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

// coreState is one core: cpusim's core over the shared L2, plus its
// trace feed and its place in the directory.
type coreState struct {
	*cpusim.Core
	id          int
	gen         trace.Generator
	pipe        *trace.Pipe // gen's block feed, built by run
	invalidated uint64
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
	cfg   Config
	mode  core.Mode
	cores []*coreState
	l2    cpusim.Level
	dir   *directory
	// global is the clock a timed shared L2 reads (see cpusim.Core).
	// Under a static L2 policy nothing advances it and it stays at 0, so
	// drive integrates the L2's static energy over the slowest core's
	// measured cycles.
	global uint64
	cohInv uint64
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
	for i := 0; i < cfg.Cores; i++ {
		coreSeed := seed + uint64(i)*7919
		l1i, err := cpusim.NewLevel(nil, cfg.System, mode, coreSeed, cpusim.L1I)
		if err != nil {
			return nil, err
		}
		l1d, err := cpusim.NewLevel(nil, cfg.System, mode, coreSeed, cpusim.L1D)
		if err != nil {
			return nil, err
		}
		cs := &coreState{
			Core:     cpusim.NewCore(cfg.System, l1i, l1d, &sys.l2, &sys.global),
			id:       i,
			dataBase: uint64(i+1) << 33, // 8 GiB apart: private regions
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
		c.Start()
	}
	s.l2.Pol.Start(nil)
}

// arm starts every level's run-time decisions after warm-up. The
// shared L2 is armed, and its measured energy window opens, at the
// latest core clock: the global clock only records the last timed L2
// access, which lags the cores at the warm-up boundary.
func (s *System) arm() {
	for _, c := range s.cores {
		c.Arm()
		if c.Cycles > s.global {
			s.global = c.Cycles
		}
	}
	s.l2.Pol.Arm(s.global)
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

// step executes one instruction on one core. Its data address moves
// into the core's region, and the MSI directory wraps the data access:
// a write first invalidates the remote copies (the writer gains
// exclusivity) and pays the coherence penalty after its own access's
// stalls. Those invalidations write back into the shared L2, so they
// fall between the fetch and the data access; any other instruction
// is one cpusim Step. The directory is read only when a write begins,
// so consulting it before the fetch and recording the outcome after
// the access equals doing both around the data access.
func (s *System) step(c *coreState, ins *trace.Instr) {
	if !ins.HasMem {
		c.Step(ins)
		return
	}
	in := *ins
	in.Addr = s.translate(c, ins.Addr)
	blk := in.Addr &^ uint64(c.L1D.Ctrl.Cache.BlockBytes()-1)
	var mask uint32
	if in.Write {
		mask = s.dir.othersHolding(blk, c.id)
	}
	var res cache.AccessResult
	var penalty uint64
	if mask == 0 {
		res = c.Step(&in)
	} else {
		c.Step(&trace.Instr{PC: in.PC}) // the fetch alone
		for _, other := range s.cores {
			if mask&(1<<uint(other.id)) == 0 {
				continue
			}
			if set, way, ok := other.L1D.Ctrl.Cache.FindFrame(blk); ok {
				if need, a := other.L1D.Ctrl.Cache.InvalidateFrame(set, way); need {
					c.WritebackToL2(a)
				}
				other.invalidated++
				s.cohInv++
			}
		}
		res = c.Data(in.Addr, true)
		penalty = s.cfg.CoherencePenaltyCycles
	}
	if res.Hit || res.Fill {
		s.dir.addSharer(blk, c.id)
	}
	if res.Writeback {
		s.dir.drop(res.WritebackAddr, c.id)
	}
	c.Cycles += penalty
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
		startCycles[i] = c.Cycles
		startL1[i] = [2]cache.Stats{c.L1I.Ctrl.Cache.Stats(), c.L1D.Ctrl.Cache.Stats()}
		startE[i] = c.L1I.Ctrl.Energy(c.Cycles).TotalJ + c.L1D.Ctrl.Energy(c.Cycles).TotalJ
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
		cyc := c.Cycles - startCycles[i]
		if cyc > maxCycles {
			maxCycles = cyc
		}
		e := c.L1I.Ctrl.Energy(c.Cycles).TotalJ + c.L1D.Ctrl.Energy(c.Cycles).TotalJ - startE[i]
		cr := CoreResult{
			CoreID:       i,
			Instructions: instrPerCore,
			Cycles:       cyc,
			IPC:          float64(instrPerCore) / float64(cyc),
			L1I:          c.L1I.Ctrl.Cache.Stats().Sub(startL1[i][0]),
			L1D:          c.L1D.Ctrl.Cache.Stats().Sub(startL1[i][1]),
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

// ResourceCounts implements runner.ResourceCounter for the runner's
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
