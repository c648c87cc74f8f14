package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cacti"
	"repro/internal/device"
	"repro/internal/faultmap"
	"repro/internal/stats"
)

// referenceTransition is the paper's Listing 2 as a literal full set×way
// metadata sweep — the pre-delta-list implementation, retained so the
// differential test below can prove the Controller's fault-map delta
// walk is observationally identical on arbitrary transition sequences.
func referenceTransition(c *cache.Cache, m *faultmap.Map, next int, sink func(addr uint64)) TransitionResult {
	res := TransitionResult{ToLevel: next}
	for s := 0; s < c.Sets(); s++ {
		for w := 0; w < c.Ways(); w++ {
			b := c.BlockIndex(s, w)
			meta := c.Meta(s, w)
			if m.FaultyAt(b, next) {
				if meta.Valid {
					if need, addr := c.InvalidateFrame(s, w); need {
						res.Writebacks++
						if sink != nil {
							sink(addr)
						}
					}
					res.Invalidations++
				}
				if !meta.Faulty {
					res.NewFaulty++
				}
				c.SetFaulty(s, w, true)
			} else {
				if meta.Faulty {
					res.Recovered++
				}
				c.SetFaulty(s, w, false)
			}
		}
	}
	return res
}

// TestTransitionDeltaMatchesFullWalk drives a Controller (delta walk)
// and a second identical cache under the reference full sweep through
// the same random interleaving of demand accesses and voltage
// transitions, asserting identical transition counts, writeback address
// sequences (order included — writeback order feeds the next level's
// LRU), per-frame metadata and cache statistics.
func TestTransitionDeltaMatchesFullWalk(t *testing.T) {
	levels := faultmap.MustLevels(0.50, 0.60, 0.75, 1.00)
	geom := cache.Config{SizeBytes: 32 << 10, Assoc: 8, BlockBytes: 64}

	mkMap := func(c *cache.Cache) *faultmap.Map {
		m := faultmap.NewMap(levels, c.NumBlocks())
		rng := stats.NewRNG(99)
		for b := 0; b < c.NumBlocks(); b++ {
			if rng.Bool(0.3) {
				m.SetFM(b, 1+rng.Intn(levels.N()))
			}
		}
		return m
	}
	geom.Name = "delta"
	cDelta := cache.MustNew(geom)
	geom.Name = "full"
	cFull := cache.MustNew(geom)
	mDelta, mFull := mkMap(cDelta), mkMap(cFull)

	org := cacti.Org{Name: "delta", SizeBytes: geom.SizeBytes, Assoc: geom.Assoc, BlockBytes: geom.BlockBytes, AddrBits: 40}
	cm, err := cacti.New(org, device.Tech45SOI(), cacti.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(cDelta, mDelta, levels, cm.WithPCS(levels.FMBits()), 2e9, 20)
	if err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRNG(7)
	now := uint64(0)
	for round := 0; round < 60; round++ {
		for j := 0; j < 1500; j++ {
			addr := uint64(rng.Intn(1 << 17))
			write := rng.Bool(0.4)
			ra, rb := cDelta.Access(addr, write), cFull.Access(addr, write)
			if ra != rb {
				t.Fatalf("round %d: Access(%#x,%v) = %+v, reference %+v", round, addr, write, ra, rb)
			}
		}
		next := 1 + rng.Intn(levels.N())
		var wbDelta, wbFull []uint64
		now += 10_000
		resDelta := ctrl.Transition(next, now, func(a uint64) { wbDelta = append(wbDelta, a) })
		resFull := referenceTransition(cFull, mFull, next, func(a uint64) { wbFull = append(wbFull, a) })

		if resDelta.Writebacks != resFull.Writebacks ||
			resDelta.Invalidations != resFull.Invalidations ||
			resDelta.NewFaulty != resFull.NewFaulty ||
			resDelta.Recovered != resFull.Recovered {
			t.Fatalf("round %d: transition to %d: delta %+v, reference %+v", round, next, resDelta, resFull)
		}
		if len(wbDelta) != len(wbFull) {
			t.Fatalf("round %d: %d writebacks, reference %d", round, len(wbDelta), len(wbFull))
		}
		for i := range wbDelta {
			if wbDelta[i] != wbFull[i] {
				t.Fatalf("round %d: writeback %d is %#x, reference %#x (order matters: it feeds the next level's LRU)",
					round, i, wbDelta[i], wbFull[i])
			}
		}
		if cDelta.FaultyCount() != cFull.FaultyCount() {
			t.Fatalf("round %d: faulty count %d, reference %d", round, cDelta.FaultyCount(), cFull.FaultyCount())
		}
		for s := 0; s < cDelta.Sets(); s++ {
			for w := 0; w < cDelta.Ways(); w++ {
				if gm, wm := cDelta.Meta(s, w), cFull.Meta(s, w); gm != wm {
					t.Fatalf("round %d: meta (%d,%d): delta %+v, reference %+v", round, s, w, gm, wm)
				}
			}
		}
	}
	if gs, ws := cDelta.Stats(), cFull.Stats(); gs != ws {
		t.Fatalf("final stats diverge:\ndelta     %+v\nreference %+v", gs, ws)
	}
}

// TestPolicyTickZeroAllocs pins the DPCS steady-state hot path: one
// sampling interval of accesses plus the policy tick allocates nothing
// once the policy has settled (no voltage transition in the window).
func TestPolicyTickZeroAllocs(t *testing.T) {
	r := newPolicyRig(t)
	r.pol.Start(nil)
	r.pol.Arm(0)
	settleAtFloor(t, r)
	avg := testing.AllocsPerRun(200, func() {
		for j := 0; j < int(r.cfg.Interval); j++ {
			r.cache.Access(0x40, false)
			r.now += 2
		}
		r.pol.Tick(r.now, nil)
	})
	if avg != 0 {
		t.Fatalf("steady-state interval allocates %v allocs/op, want 0", avg)
	}
}
