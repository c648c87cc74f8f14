package cpusim

import (
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/cacti"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faultmap"
	"repro/internal/faultmodel"
	"repro/internal/memo"
	"repro/internal/sram"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Arena owns the reusable simulation state for one worker goroutine:
// cache structures, fault-map buffers and the trace block. Consecutive
// NewSystemArena calls on the same arena recycle this memory instead of
// reallocating it, which is what makes short campaign cells cheap
// (DESIGN.md §13).
//
// Ownership contract: an Arena is confined to one goroutine, and a
// System built on it is valid only until the next NewSystemArena call
// on the same arena — building the next system resets the caches and
// fault maps the previous one still points at. Results are safe to
// retain (Result carries only copies). Callers that need several live
// Systems at once must not share one arena.
type Arena struct {
	caches map[cache.Config]*cache.Cache
	maps   map[cache.Config]*mapEntry
	// block is the trace pipe's buffer for every run on this arena.
	block []trace.Instr
}

// NewArena returns an empty arena ready for NewSystemArena.
func NewArena() *Arena {
	return &Arena{
		caches: make(map[cache.Config]*cache.Cache),
		maps:   make(map[cache.Config]*mapEntry),
		block:  make([]trace.Instr, trace.BlockSize),
	}
}

// mapEntry is one pooled fault map plus the pristine snapshot of its
// last Monte-Carlo population. Grid sweeps pin one seed across many
// cells (so that baseline/SPCS/DPCS cells are comparable), which makes
// consecutive builds redraw the exact same map — the snapshot turns
// that redraw into a memcpy.
type mapEntry struct {
	m      *faultmap.Map
	snap   []uint8
	seed   uint64
	seeded bool
}

// cacheFor returns a freshly Reset cache for cfg, reusing the arena's
// previous instance when one exists.
func (a *Arena) cacheFor(cfg cache.Config) *cache.Cache {
	if c, ok := a.caches[cfg]; ok {
		c.Reset()
		return c
	}
	c := cache.MustNew(cfg)
	a.caches[cfg] = c
	return c
}

// faultMapFor returns cfg's fault map populated for plan by Monte Carlo
// under the given system seed, reusing the arena's buffer. The content
// is identical to the cold PopulateMapMonteCarlo path: rng's state is
// fully determined by (seed, level build order), and cfg determines the
// plan (both are memoized derivations of the same organisation), so
// when the previous population of this map used the same seed the
// pristine snapshot already holds exactly what a redraw would produce
// and is restored with a copy instead. The rng draws skipped on the
// restore path are invisible — each level's RNG is a fresh split
// discarded after its build.
func (a *Arena) faultMapFor(cfg cache.Config, plan core.LevelPlan, nblocks int, seed uint64, rng *stats.RNG) *faultmap.Map {
	e, ok := a.maps[cfg]
	if !ok {
		e = &mapEntry{m: faultmap.NewMap(plan.Levels, nblocks)}
		a.maps[cfg] = e
	}
	if e.seeded && e.seed == seed && e.m.NumBlocks() == nblocks {
		e.m.RestoreFM(e.snap)
		return e.m
	}
	core.PopulateMapMonteCarloInto(rng, plan, nblocks, e.m)
	e.snap = e.m.SnapshotFM(e.snap)
	e.seed, e.seeded = seed, true
	return e.m
}

// statics memoizes the per-organisation model derivations every system
// build needs: the CACTI energy model, the nominal-VDD level set, the
// fault model with its three-voltage plan and the PCS-overhead CACTI
// variant. All of it is pure derived data fully determined by the
// cacti.Org (technology and CACTI parameters are fixed at Tech45SOI /
// DefaultParams), computed once per process and shared read-only
// across workers — the memo layer of DESIGN.md §13.
var statics atomic.Pointer[memo.Table]

func init() { statics.Store(memo.NewTable()) }

// ResetStatics drops the memoized per-organisation model derivations,
// so each is recomputed on next use. In-flight readers keep the old
// table; benchmarks use this to measure the cold construction path.
func ResetStatics() { statics.Store(memo.NewTable()) }

type baseKey struct{ org cacti.Org }
type pcsKey struct{ org cacti.Org }

// baseStatics is what a Baseline-mode level needs.
type baseStatics struct {
	cm        *cacti.Model
	nomLevels faultmap.Levels
}

// pcsStatics adds the fault-model-derived plan for SPCS/DPCS levels.
// It is memoized separately from baseStatics so a failing SelectLevels
// (possible for degenerate organisations) cannot poison baseline runs.
type pcsStatics struct {
	plan  core.LevelPlan
	pcsCM *cacti.Model
}

func baseStaticsFor(org cacti.Org) (baseStatics, error) {
	return memo.Get(statics.Load(), baseKey{org: org}, func() (baseStatics, error) {
		tech := device.Tech45SOI()
		cm, err := cacti.New(org, tech, cacti.DefaultParams())
		if err != nil {
			return baseStatics{}, err
		}
		return baseStatics{cm: cm, nomLevels: faultmap.MustLevels(tech.VDDNom)}, nil
	})
}

func pcsStaticsFor(org cacti.Org, geom faultmodel.Geometry) (pcsStatics, error) {
	return memo.Get(statics.Load(), pcsKey{org: org}, func() (pcsStatics, error) {
		base, err := baseStaticsFor(org)
		if err != nil {
			return pcsStatics{}, err
		}
		tech := device.Tech45SOI()
		fm, err := faultmodel.New(geom, sram.NewWangCalhounBER())
		if err != nil {
			return pcsStatics{}, err
		}
		capFloor := faultmodel.VDD1CapacityFloor(org.Assoc)
		plan, err := core.SelectLevels(fm, tech.VDDNom, tech.VDDMin, capFloor)
		if err != nil {
			return pcsStatics{}, err
		}
		return pcsStatics{plan: plan, pcsCM: base.cm.WithPCS(plan.Levels.FMBits())}, nil
	})
}
