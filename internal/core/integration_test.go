package core

import (
	"testing"
	"testing/quick"

	"repro/internal/bist"
	"repro/internal/cache"
	"repro/internal/cacti"
	"repro/internal/device"
	"repro/internal/faultmap"
	"repro/internal/sram"
	"repro/internal/stats"
)

// TestBISTDrivenController runs the full silicon flow: Monte-Carlo SRAM
// array -> March SS at every level -> fault map -> controller, then
// checks that the controller's gating at each voltage exactly matches
// what the BIST observed on the "silicon".
func TestBISTDrivenController(t *testing.T) {
	const (
		blocks     = 128
		blockBits  = 512
		sizeBytes  = 128 * 64
		assoc      = 4
		blockBytes = 64
	)
	levels := faultmap.MustLevels(0.50, 0.60, 1.00)
	arr := sram.NewArray(stats.NewRNG(99), sram.NewWangCalhounBER(),
		blocks, blockBits, 0.30, 1.00)
	m, results, violations := bist.PopulateFaultMap(bist.MarchSS(), arr, levels)
	if len(violations) != 0 {
		t.Fatalf("inclusion violations: %v", violations)
	}

	c := cache.MustNew(cache.Config{Name: "bist", SizeBytes: sizeBytes,
		Assoc: assoc, BlockBytes: blockBytes})
	org := cacti.Org{Name: "bist", SizeBytes: sizeBytes, Assoc: assoc,
		BlockBytes: blockBytes, AddrBits: 40}
	cm, err := cacti.New(org, device.Tech45SOI(), cacti.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(c, m, levels, cm.WithPCS(levels.FMBits()), 1e9, 10)
	if err != nil {
		t.Fatal(err)
	}

	// Walk down the ladder; at each level the gated count must equal the
	// number of rows March SS flagged at that voltage (cumulative via
	// inclusion).
	now := uint64(0)
	for k := levels.N(); k >= 1; k-- {
		now += 1000
		ctrl.Transition(k, now, nil)
		wantFaulty := 0
		for _, r := range results {
			if r.VDD == levels.Volts(k) {
				wantFaulty = len(r.FaultyRows)
			}
		}
		if got := c.FaultyCount(); got != wantFaulty {
			t.Errorf("level %d: controller gates %d blocks, BIST saw %d faulty rows",
				k, got, wantFaulty)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTransitionSequencesPreserveInvariants drives random level
// sequences over random fault maps and checks the structural invariants
// after every transition.
func TestTransitionSequencesPreserveInvariants(t *testing.T) {
	levels := faultmap.MustLevels(0.54, 0.70, 1.00)
	org := cacti.Org{Name: "q", SizeBytes: 8 << 10, Assoc: 4, BlockBytes: 64, AddrBits: 40}
	cm, err := cacti.New(org, device.Tech45SOI(), cacti.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	check := func(seed uint32, seq []uint8) bool {
		rng := stats.NewRNG(uint64(seed))
		c := cache.MustNew(cache.Config{Name: "q", SizeBytes: 8 << 10, Assoc: 4, BlockBytes: 64})
		m := faultmap.NewMap(levels, c.NumBlocks())
		for b := 0; b < c.NumBlocks(); b++ {
			m.SetFM(b, rng.Intn(3)) // 0..2 so the top level always works
		}
		ctrl, err := NewController(c, m, levels, cm.WithPCS(2), 1e9, 5)
		if err != nil {
			return false
		}
		now := uint64(0)
		sink := func(addr uint64) {}
		// Interleave accesses and transitions.
		for _, step := range seq {
			now += 100
			if step%4 == 0 {
				ctrl.Transition(int(step%3)+1, now, sink)
			} else {
				c.Access(uint64(step)*64*13, step%5 == 0)
			}
			// Invariants: faulty count matches the map at the current
			// level; no valid faulty frames.
			if c.FaultyCount() != m.FaultyCount(ctrl.Level()) {
				return false
			}
			if c.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTransitionWritebacksMatchDirtyFaulty verifies the Listing-2
// accounting: writebacks equal exactly the dirty valid blocks that
// become faulty.
func TestTransitionWritebacksMatchDirtyFaulty(t *testing.T) {
	r := newRig(t, SPCS)
	// Dirty every block in the cache.
	for s := 0; s < r.cache.Sets(); s++ {
		for w := 0; w < r.cache.Ways(); w++ {
			addr := uint64(s*64) + uint64(w)*uint64(r.cache.Sets()*64)
			r.cache.Access(addr, true)
		}
	}
	if r.cache.ValidCount() != r.cache.NumBlocks() {
		t.Fatalf("cache not full: %d", r.cache.ValidCount())
	}
	// Count blocks faulty at level 1 from the map.
	want := r.fmap.FaultyCount(1)
	var got int
	res := r.ctrl.Transition(1, 0, func(addr uint64) { got++ })
	if got != want || res.Writebacks != want {
		t.Fatalf("writebacks %d/%d, want %d", got, res.Writebacks, want)
	}
	if res.Invalidations != want {
		t.Fatalf("invalidations %d, want %d", res.Invalidations, want)
	}
}
