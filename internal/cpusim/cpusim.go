// Package cpusim is the architectural simulator substrate that stands in
// for the paper's gem5 setup (see DESIGN.md §2): a trace-driven core with
// unit base CPI, split L1 instruction/data caches, a unified L2 and a
// fixed-latency DRAM. Loads and fetches stall the core on misses
// (L1 miss adds the L2 hit latency; L2 miss adds the memory latency);
// writebacks consume bandwidth-free energy only. Each cache runs under a
// core.Controller (baseline / SPCS / DPCS), and DPCS policies tick per
// cache with their own intervals, exactly as Table 2 configures.
//
// # Concurrency contract
//
// A System and everything it owns (controllers, policies, fault maps,
// the RNG used during construction) is confined to one goroutine: build
// one System per concurrent simulation. The only package-level state is
// the statics memo table (see arena.go), which is immutable after first
// compute and safe for lock-free concurrent reads, so any number of
// Run/RunContext calls may proceed in parallel as long as each uses its
// own System and its own trace.Generator. This is the contract
// internal/runner relies on when it fans campaign jobs out across
// workers. An Arena is likewise confined to one goroutine, and a
// System built on it lives only until the next NewSystemArena call on
// that arena (DESIGN.md §13).
package cpusim

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/cacti"
	"repro/internal/core"
	"repro/internal/faultmap"
	"repro/internal/faultmodel"
	"repro/internal/obs/tracez"
	"repro/internal/stats"
	"repro/internal/trace"
)

// CacheSpec describes one cache level of a system configuration.
type CacheSpec struct {
	Org       cacti.Org
	HitCycles uint64
	// DPCS policy knobs for this cache.
	Interval uint64
	// VoltagePenaltyCycles is the supply-settling part of the
	// transition penalty (the "+20"/"+40" of Table 2).
	VoltagePenaltyCycles uint64
}

// SystemConfig is one of the paper's Table 2 system configurations.
type SystemConfig struct {
	Name     string
	ClockHz  float64
	L1I, L1D CacheSpec
	L2       CacheSpec
	// MemCycles is the DRAM access latency in cycles.
	MemCycles uint64
	// MLPOverlap models out-of-order latency hiding: the fraction of
	// each miss's stall the core overlaps with useful work (0 = fully
	// blocking in-order, the default; the paper's detailed OoO Alpha
	// would sit around 0.3-0.6 depending on workload ILP). Only demand
	// stalls shrink; energy-relevant event counts are unchanged.
	MLPOverlap float64
	// SuperInterval, LowThreshold, HighThreshold parameterise DPCS.
	SuperInterval               int
	LowThreshold, HighThreshold float64
	// Ablate disables DPCS damping refinements for ablation studies.
	Ablate core.AblationFlags
}

// ConfigA returns the paper's Config A: 2 GHz, 64 KB 4-way split L1
// (2-cycle), 2 MB 8-way L2 (4-cycle).
func ConfigA() SystemConfig {
	return SystemConfig{
		Name:    "A",
		ClockHz: 2e9,
		L1I: CacheSpec{
			Org:       cacti.Org{Name: "L1I-A", SizeBytes: 64 << 10, Assoc: 4, BlockBytes: 64, AddrBits: 40},
			HitCycles: 2, Interval: 100_000, VoltagePenaltyCycles: 20,
		},
		L1D: CacheSpec{
			Org:       cacti.Org{Name: "L1D-A", SizeBytes: 64 << 10, Assoc: 4, BlockBytes: 64, AddrBits: 40},
			HitCycles: 2, Interval: 100_000, VoltagePenaltyCycles: 20,
		},
		L2: CacheSpec{
			Org:       cacti.Org{Name: "L2-A", SizeBytes: 2 << 20, Assoc: 8, BlockBytes: 64, AddrBits: 40, SerialTagData: true},
			HitCycles: 4, Interval: 10_000, VoltagePenaltyCycles: 20,
		},
		MemCycles:     200,
		SuperInterval: 10,
		LowThreshold:  0.02,
		HighThreshold: 0.03,
	}
}

// ConfigB returns the paper's Config B: 3 GHz, 256 KB 8-way split L1
// (3-cycle), 8 MB 16-way L2 (8-cycle) — the over-provisioned system used
// to probe DPCS's advantage on larger caches.
func ConfigB() SystemConfig {
	return SystemConfig{
		Name:    "B",
		ClockHz: 3e9,
		L1I: CacheSpec{
			Org:       cacti.Org{Name: "L1I-B", SizeBytes: 256 << 10, Assoc: 8, BlockBytes: 64, AddrBits: 40},
			HitCycles: 3, Interval: 100_000, VoltagePenaltyCycles: 40,
		},
		L1D: CacheSpec{
			Org:       cacti.Org{Name: "L1D-B", SizeBytes: 256 << 10, Assoc: 8, BlockBytes: 64, AddrBits: 40},
			HitCycles: 3, Interval: 100_000, VoltagePenaltyCycles: 40,
		},
		L2: CacheSpec{
			Org:       cacti.Org{Name: "L2-B", SizeBytes: 8 << 20, Assoc: 16, BlockBytes: 64, AddrBits: 40, SerialTagData: true},
			HitCycles: 8, Interval: 10_000, VoltagePenaltyCycles: 40,
		},
		MemCycles:     300,
		SuperInterval: 10,
		LowThreshold:  0.03,
		HighThreshold: 0.045,
	}
}

// ConfigByName resolves a Table 2 configuration name, "A" or "B"
// (case-insensitive, surrounding space ignored; empty means A).
func ConfigByName(name string) (SystemConfig, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "", "A":
		return ConfigA(), nil
	case "B":
		return ConfigB(), nil
	default:
		return SystemConfig{}, fmt.Errorf("cpusim: unknown system config %q (want A or B)", name)
	}
}

// RunOptions control one simulation.
type RunOptions struct {
	// WarmupInstr instructions run before measurement starts (the
	// paper's fast-forward; scaled down like everything else).
	WarmupInstr uint64
	// SimInstr instructions are measured.
	SimInstr uint64
	// Seed drives fault-map placement and the workload generator.
	Seed uint64
	// Arena, when non-nil, supplies the reusable per-worker simulation
	// state (see Arena); the run's output is byte-identical with or
	// without it.
	Arena *Arena `json:"-"`
}

// CacheResult reports one cache's behaviour over the measured window.
type CacheResult struct {
	Name        string
	Stats       cache.Stats
	Energy      core.EnergyReport
	AvgPowerW   float64
	Transitions int
	// LevelVolts and TimeAtLevelCycles describe where the controller
	// spent its time (index 0 = lowest level).
	LevelVolts        []float64
	TimeAtLevelCycles []uint64
}

// Result is the outcome of one simulation run.
type Result struct {
	Workload string
	Config   string
	Mode     core.Mode

	Instructions uint64
	Cycles       uint64
	Seconds      float64
	IPC          float64

	L1I, L1D, L2 CacheResult

	// TotalCacheEnergyJ sums all three caches' energies.
	TotalCacheEnergyJ float64
}

// Policy decides when one cache level changes voltage. A run calls
// Start once at cycle 0, Arm once after warm-up, and Tick whenever the
// level's controller is Due (core.Controller.Due) after an access. A
// policy that makes no run-time decisions schedules none, so its
// controller is never Due and Tick is never reached. core.DPCSPolicy
// and core.StaticPolicy implement it.
type Policy interface {
	// Start makes the initial transition, writing back through sink.
	Start(sink func(addr uint64))
	// Arm starts run-time decisions after warm-up; now is the cycle.
	Arm(now uint64)
	// Tick decides at a scheduled boundary and returns the stall.
	Tick(now uint64, sink func(addr uint64)) (stall uint64)
}

// The levels of a system, in build order: level k draws its fault map
// from the k-th RNG stream of the system's seed.
const (
	L1I = iota
	L1D
	L2
)

// Level is one cache of a hierarchy: the controller that owns the
// cache, its fault map and its energy account, and the policy that
// moves its voltage.
type Level struct {
	Ctrl *core.Controller
	Pol  Policy
	// Timed is set when Pol makes run-time decisions (DPCS), which read
	// the clock. Cores that share an L2 keep its clock current only for
	// a timed level (see Core).
	Timed bool
}

// Core is one core's view of a cache hierarchy: its private L1s, the L2
// behind them and its clock. The demand-access path is written once, as
// Core's methods: System is one Core over its own L2, and
// internal/multicore runs several over one shared L2.
type Core struct {
	L1I, L1D Level
	L2       *Level
	// Cycles is the core's clock: one per instruction plus every stall.
	Cycles uint64
	// l2Clock is the clock the L2's policy reads. A core that owns its
	// L2 points it at its own Cycles. Cores that share an L2 point it at
	// one global clock, which every access to a timed L2 advances to the
	// accessing core's Cycles: skipping an advance would change the
	// `now` a later decision observes.
	l2Clock *uint64
	// toL2 is WritebackToL2 bound once, so handing it to a policy's Tick
	// through the Policy interface does not allocate per decision.
	toL2 func(addr uint64)
	cfg  SystemConfig
}

// NewCore returns a core of configuration cfg over the given L1s and
// the L2 behind them. The L2's policy reads l2Clock, or the core's own
// Cycles when l2Clock is nil.
func NewCore(cfg SystemConfig, l1i, l1d Level, l2 *Level, l2Clock *uint64) *Core {
	c := &Core{L1I: l1i, L1D: l1d, L2: l2, l2Clock: l2Clock, cfg: cfg}
	if c.l2Clock == nil {
		c.l2Clock = &c.Cycles
	}
	c.toL2 = c.WritebackToL2
	return c
}

// Start makes the L1s' initial transitions at cycle 0; the L2's owner
// starts the L2.
func (c *Core) Start() {
	c.L1I.Pol.Start(c.toL2)
	c.L1D.Pol.Start(c.toL2)
}

// Arm starts the L1s' run-time decisions at the core's clock; the L2's
// owner arms the L2.
func (c *Core) Arm() {
	c.L1I.Pol.Arm(c.Cycles)
	c.L1D.Pol.Arm(c.Cycles)
}

// Step executes one instruction: the base CPI of 1, the fetch of
// ins.PC through the L1I and, for a memory instruction, the data access
// through the L1D, whose outcome it returns (the zero result for none;
// a memoized repeat-block hit reports only Hit). Every stall goes to
// the core's clock.
//
// The memoized repeat-block hit — the dominant outcome for sequential
// fetch runs and hot data blocks — is applied inline (FastHit and the
// Due gate both inline), so the common case makes no call; everything
// else takes accessFull. FastHit-then-AccessFull is observationally
// identical to Access. Interval fast-forward: a policy is quiescent
// between its scheduled decisions (energy and time-at-level integrate
// lazily in the controller), so the Tick call, and its interval-stats
// struct copy, is skipped until the access counter reaches the next
// one.
func (c *Core) Step(ins *trace.Instr) cache.AccessResult {
	c.Cycles++
	if c.L1I.Ctrl.Cache.FastHit(ins.PC, false) {
		c.L1I.Ctrl.OnAccess(false)
		if c.L1I.Ctrl.Due() {
			c.tick(&c.L1I)
		}
	} else {
		c.accessFull(&c.L1I, ins.PC, false)
	}
	if !ins.HasMem {
		return cache.AccessResult{}
	}
	if c.L1D.Ctrl.Cache.FastHit(ins.Addr, ins.Write) {
		c.L1D.Ctrl.OnAccess(ins.Write)
		if c.L1D.Ctrl.Due() {
			c.tick(&c.L1D)
		}
		return cache.AccessResult{Hit: true}
	}
	return c.accessFull(&c.L1D, ins.Addr, ins.Write)
}

// Data performs a data access through the L1D alone, for a caller that
// must act between an instruction's fetch (a Step without HasMem) and
// its data access. It always takes the full probe, which is
// observationally identical to the memoized hit.
func (c *Core) Data(addr uint64, write bool) cache.AccessResult {
	return c.accessFull(&c.L1D, addr, write)
}

// WritebackToL2 writes an evicted dirty L1 block into the L2: energy,
// no stall. L2 writebacks to DRAM are outside the paper's cache-energy
// accounting.
func (c *Core) WritebackToL2(addr uint64) {
	res := c.L2.Ctrl.Cache.Access(addr, true)
	c.L2.Ctrl.OnAccess(true)
	if res.Fill && !res.Hit {
		c.L2.Ctrl.OnFill()
	}
}

// accessFull performs a demand access on an L1 with the full probe,
// recursing into the L2 on a miss, and returns the L1's outcome.
func (c *Core) accessFull(lv *Level, addr uint64, write bool) cache.AccessResult {
	res := lv.Ctrl.Cache.AccessFull(addr, write)
	lv.Ctrl.OnAccess(write)
	var stall uint64
	if !res.Hit {
		lv.Ctrl.NoteMiss(blockAlign(addr, lv.Ctrl.Cache.BlockBytes()))
		if res.Fill {
			lv.Ctrl.OnFill()
		}
		if res.Writeback {
			c.WritebackToL2(res.WritebackAddr)
		}
		stall = c.accessL2(addr, write)
	}
	// The L1's decision sees the clock before this access's own stall.
	if lv.Ctrl.Due() {
		c.tick(lv)
	}
	c.Cycles += stall
	return res
}

// tick runs an L1's due decision and charges its stall to the clock.
func (c *Core) tick(lv *Level) {
	st := lv.Pol.Tick(c.Cycles, c.toL2)
	c.Cycles += st
}

// accessL2 performs a demand L2 access and returns its stall, which
// the caller charges after the L1's decision. A decision the access
// triggers charges its transition stall to this core at once.
func (c *Core) accessL2(addr uint64, write bool) uint64 {
	l2 := c.L2
	stall := c.cfg.L2.HitCycles
	res := l2.Ctrl.Cache.Access(addr, write)
	l2.Ctrl.OnAccess(write)
	if !res.Hit {
		l2.Ctrl.NoteMiss(blockAlign(addr, l2.Ctrl.Cache.BlockBytes()))
		stall += c.cfg.MemCycles
		if res.Fill {
			l2.Ctrl.OnFill()
		}
	}
	if l2.Timed && *c.l2Clock < c.Cycles { // a shared clock (see l2Clock)
		*c.l2Clock = c.Cycles
	}
	if l2.Ctrl.Due() {
		st := l2.Pol.Tick(*c.l2Clock, nil)
		c.Cycles += st
	}
	return c.overlap(stall)
}

// overlap shrinks a demand stall by the configured MLP overlap factor.
func (c *Core) overlap(stall uint64) uint64 {
	if c.cfg.MLPOverlap <= 0 {
		return stall
	}
	f := 1 - c.cfg.MLPOverlap
	if f < 0 {
		f = 0
	}
	return uint64(float64(stall) * f)
}

// blockAlign rounds addr down to its cache-block base address.
func blockAlign(addr uint64, blockBytes int) uint64 {
	return addr &^ (uint64(blockBytes) - 1)
}

// System is a configured simulator instance: one Core over its own L2.
type System struct {
	*Core
	mode core.Mode
	l2   Level
	// arena, when non-nil, owns this system's caches, fault maps and
	// trace block; the system is valid until the arena's next build.
	arena *Arena
}

// NewSystemArena builds the three cache levels for the given mode,
// deriving per-cache voltage plans from the BER model and populating
// fault maps by seeded Monte Carlo, drawing every reusable structure
// from the given arena. A nil arena allocates fresh ones. The
// constructed system is byte-for-byte equivalent either way — same RNG
// draw sequence, same fault maps, same cold-cache contents — but a warm
// arena supplies the memory without allocating. The returned System is
// valid only until the next NewSystemArena call on the same arena.
func NewSystemArena(a *Arena, cfg SystemConfig, mode core.Mode, seed uint64) (*System, error) {
	var lv [3]Level
	for k := range lv {
		var err error
		if lv[k], err = NewLevel(a, cfg, mode, seed, k); err != nil {
			return nil, err
		}
	}
	sys := &System{mode: mode, l2: lv[L2], arena: a}
	sys.Core = NewCore(cfg, lv[L1I], lv[L1D], &sys.l2, nil)
	return sys, nil
}

// levels lists the system's levels in build order.
func (s *System) levels() [3]*Level { return [3]*Level{&s.L1I, &s.L1D, &s.l2} }

// NewLevel builds level k (L1I, L1D or L2) of the system that
// NewSystemArena(a, cfg, mode, seed) builds: its cache, its fault map
// (none for baseline), its controller and its policy. It is the one
// place a Mode chooses behaviour. internal/multicore builds its private
// L1s and its shared L2 from it, with a nil arena.
func NewLevel(a *Arena, cfg SystemConfig, mode core.Mode, seed uint64, k int) (Level, error) {
	if mode < core.Baseline || mode > core.DPCS {
		return Level{}, fmt.Errorf("cpusim: unknown mode %v", mode)
	}
	spec := [...]CacheSpec{cfg.L1I, cfg.L1D, cfg.L2}[k]
	base, err := baseStaticsFor(spec.Org)
	if err != nil {
		return Level{}, err
	}
	ccfg := cache.Config{
		Name:       spec.Org.Name,
		SizeBytes:  spec.Org.SizeBytes,
		Assoc:      spec.Org.Assoc,
		BlockBytes: spec.Org.BlockBytes,
	}
	var c *cache.Cache
	if a != nil {
		c = a.cacheFor(ccfg)
	} else {
		c = cache.MustNew(ccfg)
	}

	if mode == core.Baseline {
		ctrl, err := core.NewController(c, nil, base.nomLevels, base.cm, cfg.ClockHz, 0)
		if err != nil {
			return Level{}, err
		}
		return Level{Ctrl: ctrl, Pol: core.NewStatic(ctrl, 0)}, nil
	}

	geom := faultmodel.Geometry{Sets: c.Sets(), Ways: c.Ways(), BlockBits: spec.Org.BlockBits()}
	pcs, err := pcsStaticsFor(spec.Org, geom)
	if err != nil {
		return Level{}, err
	}
	// Level k's stream is the k-th Split of the system's root stream:
	// a generator seeded with the root's (k+1)-th draw.
	var rng stats.RNG
	rng.Reseed(seed ^ 0x9C5_DEAD)
	for i := 0; i < k; i++ {
		rng.Uint64()
	}
	rng.Reseed(rng.Uint64())
	var m *faultmap.Map
	if a != nil {
		m = a.faultMapFor(ccfg, pcs.plan, c.NumBlocks(), seed, &rng)
	} else {
		m = core.PopulateMapMonteCarlo(&rng, pcs.plan, c.NumBlocks())
	}
	if bad := core.EnsureSetsUsable(m, c.Sets(), c.Ways(), 1); len(bad) > 0 {
		core.RepairSets(m, c.Ways(), bad)
	}
	ctrl, err := core.NewController(c, m, pcs.plan.Levels, pcs.pcsCM, cfg.ClockHz, spec.VoltagePenaltyCycles)
	if err != nil {
		return Level{}, err
	}
	if mode == core.SPCS {
		return Level{Ctrl: ctrl, Pol: core.NewStatic(ctrl, pcs.plan.SPCSLevel)}, nil
	}

	missPenalty := float64(cfg.L2.HitCycles)
	if spec.Org.SerialTagData { // this is the L2: misses go to memory
		missPenalty = float64(cfg.MemCycles)
	}
	pol, err := core.NewDPCS(core.DPCSConfig{
		Interval:          spec.Interval,
		SuperInterval:     cfg.SuperInterval,
		LowThreshold:      cfg.LowThreshold,
		HighThreshold:     cfg.HighThreshold,
		HitCycles:         float64(spec.HitCycles),
		MissPenaltyCycles: missPenalty,
		SPCSLevel:         pcs.plan.SPCSLevel,
		Ablate:            cfg.Ablate,
	}, ctrl)
	if err != nil {
		return Level{}, err
	}
	return Level{Ctrl: ctrl, Pol: pol, Timed: true}, nil
}

// start makes every level's initial transition at cycle 0.
func (s *System) start() {
	s.Core.Start()
	s.l2.Pol.Start(nil)
}

// arm starts every level's run-time decisions after warm-up.
func (s *System) arm() {
	s.Core.Arm()
	s.l2.Pol.Arm(s.Cycles)
}

// Run simulates the workload under the options and returns the measured
// window's result.
func Run(cfg SystemConfig, mode core.Mode, w trace.Workload, opts RunOptions) (Result, error) {
	return RunContext(context.Background(), cfg, mode, w, opts)
}

// RunContext is Run with cancellation: the instruction loops poll ctx
// and abandon the simulation mid-flight with ctx's error when it is
// cancelled, so a cancelled campaign does not run to completion.
func RunContext(ctx context.Context, cfg SystemConfig, mode core.Mode, w trace.Workload, opts RunOptions) (Result, error) {
	parent := tracez.SpanFromContext(ctx)
	bsp := parent.Child("sim.build")
	sys, err := NewSystemArena(opts.Arena, cfg, mode, opts.Seed)
	bsp.SetStr("config", cfg.Name)
	bsp.SetStr("mode", mode.String())
	bsp.End()
	if err != nil {
		return Result{}, err
	}
	gsp := parent.Child("sim.tracegen")
	gen, err := trace.New(w, opts.Seed)
	gsp.SetStr("workload", w.Name)
	gsp.End()
	if err != nil {
		return Result{}, err
	}
	return sys.run(ctx, gen, opts)
}

// RunGenerator is Run for a caller-supplied instruction source (e.g. a
// replayed trace): the generator's Name labels the result.
func RunGenerator(cfg SystemConfig, mode core.Mode, gen trace.Generator, opts RunOptions) (Result, error) {
	return RunGeneratorContext(context.Background(), cfg, mode, gen, opts)
}

// RunGeneratorContext is RunGenerator with cancellation (see RunContext).
func RunGeneratorContext(ctx context.Context, cfg SystemConfig, mode core.Mode, gen trace.Generator, opts RunOptions) (Result, error) {
	bsp := tracez.SpanFromContext(ctx).Child("sim.build")
	sys, err := NewSystemArena(opts.Arena, cfg, mode, opts.Seed)
	bsp.SetStr("config", cfg.Name)
	bsp.SetStr("mode", mode.String())
	bsp.End()
	if err != nil {
		return Result{}, err
	}
	return sys.run(ctx, gen, opts)
}

// simulate runs the next n instructions off a trace.Pipe, refilling it
// a block at a time and polling cancellation once per block. A cancel
// arriving mid-block is observed at the next block boundary, so neither
// simulation nor trace generation runs more than one block
// (trace.BlockSize instructions) past it.
func (s *System) simulate(ctx context.Context, p *trace.Pipe, n uint64) error {
	for n > 0 {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if p.Pos == len(p.Cur) {
			p.Refill()
		}
		blk := p.Cur[p.Pos:]
		if n < uint64(len(blk)) {
			blk = blk[:n]
		}
		c := s.Core
		for i := range blk {
			c.Step(&blk[i])
		}
		p.Pos += len(blk)
		n -= uint64(len(blk))
	}
	return nil
}

// run drives a prepared system through warm-up and measurement,
// feeding it gen's instructions through a trace.Pipe.
func (sys *System) run(ctx context.Context, gen trace.Generator, opts RunOptions) (Result, error) {
	var buf []trace.Instr
	if sys.arena != nil {
		buf = sys.arena.block
	}
	p := trace.NewPipe(trace.AsBlock(gen), buf)
	return sys.drive(ctx, gen.Name(), opts, func(n uint64) error { return sys.simulate(ctx, p, n) })
}

// drive runs the warm-up and the measured window, each through window,
// which simulates the next n instructions of the workload's stream,
// and returns the measured window's result. The differential tests
// drive a per-instruction reference window through it.
func (sys *System) drive(ctx context.Context, workload string, opts RunOptions, window func(n uint64) error) (Result, error) {
	cfg := sys.cfg
	mode := sys.mode
	// Every level records its policy's decisions and transitions under
	// the caller's span, warm-up included; without one it records
	// nothing.
	parent := tracez.SpanFromContext(ctx)
	for _, lv := range sys.levels() {
		lv.Ctrl.SetSpan(parent)
	}
	sys.start()

	wsp := parent.Child("sim.warmup")
	wsp.SetUint("instructions", opts.WarmupInstr)
	if err := window(opts.WarmupInstr); err != nil {
		wsp.End()
		return Result{}, err
	}
	wsp.End()
	sys.arm()
	// Measurement marks.
	startCycles := sys.Cycles
	startE := [3]core.EnergyReport{
		sys.L1I.Ctrl.Energy(sys.Cycles),
		sys.L1D.Ctrl.Energy(sys.Cycles),
		sys.l2.Ctrl.Energy(sys.Cycles),
	}
	startStats := [3]cache.Stats{
		sys.L1I.Ctrl.Cache.Stats(),
		sys.L1D.Ctrl.Cache.Stats(),
		sys.l2.Ctrl.Cache.Stats(),
	}
	startTrans := [3]int{
		sys.L1I.Ctrl.Transitions(),
		sys.L1D.Ctrl.Transitions(),
		sys.l2.Ctrl.Transitions(),
	}

	msp := parent.Child("sim.measure")
	msp.SetUint("instructions", opts.SimInstr)
	msp.SetUint("start_cycle", startCycles)
	msp.SetFloat("clock_hz", cfg.ClockHz)
	err := window(opts.SimInstr)
	msp.SetUint("end_cycle", sys.Cycles)
	msp.End()
	if err != nil {
		return Result{}, err
	}

	esp := parent.Child("sim.energy")
	cycles := sys.Cycles - startCycles
	res := Result{
		Workload:     workload,
		Config:       cfg.Name,
		Mode:         mode,
		Instructions: opts.SimInstr,
		Cycles:       cycles,
		Seconds:      float64(cycles) / cfg.ClockHz,
		IPC:          float64(opts.SimInstr) / float64(cycles),
	}
	finish := func(lv *Level, e0 core.EnergyReport, s0 cache.Stats, t0 int) CacheResult {
		e1 := lv.Ctrl.Energy(sys.Cycles)
		de := core.EnergyReport{
			StaticJ:     e1.StaticJ - e0.StaticJ,
			DynamicJ:    e1.DynamicJ - e0.DynamicJ,
			TransitionJ: e1.TransitionJ - e0.TransitionJ,
			TotalJ:      e1.TotalJ - e0.TotalJ,
		}
		cr := CacheResult{
			Name:              lv.Ctrl.Cache.Name(),
			Stats:             lv.Ctrl.Cache.Stats().Sub(s0),
			Energy:            de,
			Transitions:       lv.Ctrl.Transitions() - t0,
			LevelVolts:        lv.Ctrl.Levels.All(),
			TimeAtLevelCycles: lv.Ctrl.TimeAtLevelCycles(),
		}
		if res.Seconds > 0 {
			cr.AvgPowerW = de.TotalJ / res.Seconds
		}
		return cr
	}
	res.L1I = finish(&sys.L1I, startE[0], startStats[0], startTrans[0])
	res.L1D = finish(&sys.L1D, startE[1], startStats[1], startTrans[1])
	res.L2 = finish(&sys.l2, startE[2], startStats[2], startTrans[2])
	res.TotalCacheEnergyJ = res.L1I.Energy.TotalJ + res.L1D.Energy.TotalJ + res.L2.Energy.TotalJ
	esp.SetFloat("total_j", res.TotalCacheEnergyJ)
	esp.End()
	return res, nil
}

// ResourceCounts implements runner.ResourceCounter: the runner
// attributes the run's voltage transitions and dirty writebacks to its
// job's resource block.
func (r Result) ResourceCounts() (transitions int, writebacks uint64) {
	transitions = r.L1I.Transitions + r.L1D.Transitions + r.L2.Transitions
	writebacks = r.L1I.Stats.Writebacks + r.L1D.Stats.Writebacks + r.L2.Stats.Writebacks
	return transitions, writebacks
}

// EnergyJ implements runner.ResourceCounter: the run's total cache
// energy.
func (r Result) EnergyJ() float64 { return r.TotalCacheEnergyJ }

// String gives a compact one-line summary of a result.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s/%s: IPC=%.3f cycles=%d E=%.3g mJ (L1I %.3g, L1D %.3g, L2 %.3g)",
		r.Config, r.Workload, r.Mode, r.IPC, r.Cycles,
		r.TotalCacheEnergyJ*1e3, r.L1I.Energy.TotalJ*1e3, r.L1D.Energy.TotalJ*1e3, r.L2.Energy.TotalJ*1e3)
}

// L2Controller returns the L2 controller.
func (s *System) L2Controller() *core.Controller { return s.l2.Ctrl }
