package expers

import (
	"context"

	"repro/internal/cache"
	"repro/internal/cpusim"
	"repro/internal/faultmap"
	"repro/internal/runner"
	"repro/internal/stats"
)

// CellArena is the per-worker reusable state for campaign cells
// (DESIGN.md §13): the runner builds one per (worker, kind) via
// runner.KindInfo.NewWorkerState, and the kind functions thread it
// into their simulation substrate, so consecutive cells on a worker
// recycle their caches, fault maps, trace block and RNGs instead of
// reallocating. A CellArena is confined to one goroutine; everything a
// cell built on it is invalidated by the worker's next cell of the
// same kind. Cells must produce byte-identical output with a nil
// arena (the cold path) — the differential tests assert exactly that.
type CellArena struct {
	// Sim is the cpusim-level arena for the kind that runs whole
	// systems, fig4-cell.
	Sim *cpusim.Arena
	// caches pools standalone caches for the leakage kind, which keeps
	// several same-config caches live at once — the slot disambiguates
	// them (slot 0 = baseline, 1 = drowsy, 2 = decay, 3 = SPCS).
	caches map[cacheSlot]*cache.Cache
	// fmap and rng serve the leakage kind's fault-map population.
	fmap *faultmap.Map
	rng  stats.RNG
}

// cacheSlot keys one pooled standalone cache: the config plus a slot
// index for cells that need several live instances of the same config.
type cacheSlot struct {
	cfg  cache.Config
	slot int
}

// NewCellArena returns an empty arena; the runner calls this lazily on
// each worker's first job of an arena-aware kind.
func NewCellArena() *CellArena {
	return &CellArena{
		Sim:    cpusim.NewArena(),
		caches: make(map[cacheSlot]*cache.Cache),
	}
}

// arenaFromContext returns the job's CellArena, or nil when the job
// runs cold (direct call, runner.Options.NoWorkerState, or a kind
// registered without a factory). All kind functions treat nil as
// "allocate fresh".
func arenaFromContext(ctx context.Context) *CellArena {
	a, _ := runner.WorkerStateFromContext(ctx).(*CellArena)
	return a
}

// cacheFor returns a freshly Reset cache for (cfg, slot), reusing the
// pooled instance when one exists.
func (a *CellArena) cacheFor(cfg cache.Config, slot int) *cache.Cache {
	key := cacheSlot{cfg: cfg, slot: slot}
	if c, ok := a.caches[key]; ok {
		c.Reset()
		return c
	}
	c := cache.MustNew(cfg)
	a.caches[key] = c
	return c
}

// simArena returns the cpusim arena of a possibly-nil CellArena, so
// kind functions can assign cpusim.RunOptions.Arena unconditionally.
func (a *CellArena) simArena() *cpusim.Arena {
	if a == nil {
		return nil
	}
	return a.Sim
}
