package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func smallCache(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{Name: "t", SizeBytes: 4096, Assoc: 4, BlockBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGeometry(t *testing.T) {
	c := smallCache(t)
	if c.Sets() != 16 || c.Ways() != 4 || c.BlockBytes() != 64 || c.NumBlocks() != 64 {
		t.Fatalf("geometry: %d sets %d ways", c.Sets(), c.Ways())
	}
	if c.Name() != "t" {
		t.Error("name")
	}
}

func TestConfigValidation(t *testing.T) {
	bads := []Config{
		{Name: "a", SizeBytes: 0, Assoc: 4, BlockBytes: 64},
		{Name: "b", SizeBytes: 4096, Assoc: 0, BlockBytes: 64},
		{Name: "c", SizeBytes: 4096, Assoc: 4, BlockBytes: 48},
		{Name: "d", SizeBytes: 4097, Assoc: 4, BlockBytes: 64},
		{Name: "e", SizeBytes: 4096 * 3, Assoc: 4, BlockBytes: 64}, // 48 sets
	}
	for _, cfg := range bads {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %s accepted", cfg.Name)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c := smallCache(t)
	r := c.Access(0x1000, false)
	if r.Hit || !r.Fill || r.Bypass {
		t.Fatalf("first access: %+v", r)
	}
	r = c.Access(0x1000, false)
	if !r.Hit {
		t.Fatalf("second access missed")
	}
	r = c.Access(0x1004, false) // same block, different word
	if !r.Hit {
		t.Fatalf("same-block access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 || s.Fills != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := smallCache(t) // 16 sets: addresses 64*16 apart share a set
	setStride := uint64(64 * 16)
	// Fill set 0 with 4 blocks.
	for i := uint64(0); i < 4; i++ {
		c.Access(i*setStride, false)
	}
	// Touch block 0 to make block 1 the LRU.
	c.Access(0, false)
	// A 5th block must evict block 1.
	c.Access(4*setStride, false)
	if !c.Probe(0) {
		t.Error("MRU block evicted")
	}
	if c.Probe(1 * setStride) {
		t.Error("LRU block survived")
	}
	for _, i := range []uint64{2, 3, 4} {
		if !c.Probe(i * setStride) {
			t.Errorf("block %d missing", i)
		}
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := smallCache(t)
	setStride := uint64(64 * 16)
	c.Access(0, true) // dirty
	for i := uint64(1); i <= 3; i++ {
		c.Access(i*setStride, false)
	}
	r := c.Access(4*setStride, false) // evicts block 0
	if !r.Writeback {
		t.Fatalf("no writeback: %+v", r)
	}
	if r.WritebackAddr != 0 {
		t.Fatalf("writeback addr %#x", r.WritebackAddr)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writeback count %d", c.Stats().Writebacks)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := smallCache(t)
	setStride := uint64(64 * 16)
	for i := uint64(0); i <= 4; i++ {
		if r := c.Access(i*setStride, false); r.Writeback {
			t.Fatalf("clean eviction wrote back")
		}
	}
}

func TestWriteMakesDirty(t *testing.T) {
	c := smallCache(t)
	c.Access(0x40, false) // clean fill
	c.Access(0x40, true)  // write hit: dirty
	need, addr := c.InvalidateFrame(1, 0)
	if !need || addr != 0x40 {
		t.Fatalf("invalidate: need=%v addr=%#x", need, addr)
	}
}

func TestFaultyFrameNeverHitsOrFills(t *testing.T) {
	c := smallCache(t)
	// Mark all but way 3 of set 0 faulty.
	for w := 0; w < 3; w++ {
		c.SetFaulty(0, w, true)
	}
	setStride := uint64(64 * 16)
	c.Access(0, false)
	c.Access(setStride, false) // evicts the only healthy way
	if c.Probe(0) {
		t.Error("evicted block still present")
	}
	if !c.Probe(setStride) {
		t.Error("new block not in the healthy way")
	}
	meta := c.Meta(0, 3)
	if !meta.Valid {
		t.Error("healthy way not used")
	}
	for w := 0; w < 3; w++ {
		if c.Meta(0, w).Valid {
			t.Errorf("faulty way %d became valid", w)
		}
	}
}

func TestAllWaysFaultyBypasses(t *testing.T) {
	c := smallCache(t)
	for w := 0; w < 4; w++ {
		c.SetFaulty(0, w, true)
	}
	r := c.Access(0, false)
	if !r.Bypass || r.Fill || r.Hit {
		t.Fatalf("access to dead set: %+v", r)
	}
	s := c.Stats()
	if s.Bypasses != 1 || s.Misses != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestSetFaultyInvalidates(t *testing.T) {
	c := smallCache(t)
	c.Access(0, true)
	// Find the frame holding address 0.
	var way = -1
	for w := 0; w < 4; w++ {
		if m := c.Meta(0, w); m.Valid && m.Addr == 0 {
			way = w
		}
	}
	if way < 0 {
		t.Fatal("fill not found")
	}
	c.SetFaulty(0, way, true)
	m := c.Meta(0, way)
	if m.Valid || m.Dirty || !m.Faulty {
		t.Fatalf("faulty frame metadata: %+v", m)
	}
	if c.Probe(0) {
		t.Error("faulty frame still hits")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestClearFaultyRestoresFrame(t *testing.T) {
	c := smallCache(t)
	c.SetFaulty(0, 0, true)
	c.SetFaulty(0, 0, false)
	if c.FaultyCount() != 0 {
		t.Error("faulty count after clear")
	}
	// The frame is usable again.
	for i := uint64(0); i < 4; i++ {
		c.Access(i*64*16, false)
	}
	if c.ValidCount() != 4 {
		t.Errorf("valid count %d", c.ValidCount())
	}
}

func TestAddressReconstruction(t *testing.T) {
	c := smallCache(t)
	if err := quick.Check(func(raw uint32) bool {
		addr := uint64(raw) &^ 63 // block aligned
		c.Access(addr, false)
		set, _ := int(addr>>6)&15, addr
		for w := 0; w < 4; w++ {
			m := c.Meta(set, w)
			if m.Valid && m.Addr == addr {
				return true
			}
		}
		return false
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Accesses: 10, Hits: 6, Misses: 4, Writebacks: 2}
	b := Stats{Accesses: 4, Hits: 2, Misses: 2, Writebacks: 1}
	d := a.Sub(b)
	if d.Accesses != 6 || d.Hits != 4 || d.Misses != 2 || d.Writebacks != 1 {
		t.Fatalf("diff: %+v", d)
	}
	if d.MissRate() != 2.0/6.0 {
		t.Errorf("miss rate %v", d.MissRate())
	}
	if (Stats{}).MissRate() != 0 {
		t.Error("empty miss rate")
	}
}

func TestInvariantsUnderRandomWorkload(t *testing.T) {
	c := smallCache(t)
	rng := stats.NewRNG(77)
	for i := 0; i < 50000; i++ {
		switch rng.Intn(10) {
		case 0:
			c.SetFaulty(rng.Intn(16), rng.Intn(4), rng.Bool(0.5))
		case 1:
			c.InvalidateFrame(rng.Intn(16), rng.Intn(4))
		default:
			c.Access(uint64(rng.Intn(1<<16))&^63, rng.Bool(0.3))
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Hits+s.Misses != s.Accesses {
		t.Fatalf("hits+misses != accesses: %+v", s)
	}
}

func TestHitRatioReflectsWorkingSet(t *testing.T) {
	// A working set that fits must converge to ~100% hits; one that
	// doesn't fit (uniform random) must miss often.
	c := smallCache(t) // 4 KB
	rng := stats.NewRNG(5)
	for i := 0; i < 20000; i++ {
		c.Access(uint64(rng.Intn(4096))&^63, false) // fits exactly
	}
	if mr := c.Stats().MissRate(); mr > 0.05 {
		t.Errorf("fitting working set miss rate %v", mr)
	}
	c2 := smallCache(t)
	rng2 := stats.NewRNG(6)
	for i := 0; i < 20000; i++ {
		c2.Access(uint64(rng2.Intn(1<<20))&^63, false) // 1 MB set
	}
	if mr := c2.Stats().MissRate(); mr < 0.5 {
		t.Errorf("overflowing working set miss rate %v", mr)
	}
}

func TestProbeDoesNotDisturbState(t *testing.T) {
	c := smallCache(t)
	c.Access(0, false)
	s := c.Stats()
	c.Probe(0)
	c.Probe(0x9999999)
	if c.Stats() != s {
		t.Error("Probe changed statistics")
	}
}

func TestFramePanics(t *testing.T) {
	c := smallCache(t)
	for _, f := range []func(){
		func() { c.Meta(16, 0) },
		func() { c.Meta(0, 4) },
		func() { c.Meta(-1, 0) },
		func() { c.SetFaulty(0, -1, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(Config{Name: "bad"})
}

func TestDirectMappedCache(t *testing.T) {
	c := MustNew(Config{Name: "dm", SizeBytes: 1024, Assoc: 1, BlockBytes: 64})
	if c.Sets() != 16 || c.Ways() != 1 {
		t.Fatalf("dm geometry %d/%d", c.Sets(), c.Ways())
	}
	c.Access(0, false)
	c.Access(1024, false) // conflicts with 0
	if c.Probe(0) {
		t.Error("direct-mapped conflict did not evict")
	}
}

func TestFullyAssociativeCache(t *testing.T) {
	c := MustNew(Config{Name: "fa", SizeBytes: 1024, Assoc: 16, BlockBytes: 64})
	if c.Sets() != 1 {
		t.Fatalf("fa sets %d", c.Sets())
	}
	for i := uint64(0); i < 16; i++ {
		c.Access(i*64, false)
	}
	for i := uint64(0); i < 16; i++ {
		if !c.Probe(i * 64) {
			t.Errorf("block %d evicted from fully associative", i)
		}
	}
}

func TestResetStatsAndBlockIndex(t *testing.T) {
	c := smallCache(t)
	c.Access(0, false)
	c.stats = Stats{} // statistics live apart from the contents
	if c.Stats() != (Stats{}) {
		t.Error("stats not cleared")
	}
	if !c.Probe(0) {
		t.Error("clearing the statistics disturbed contents")
	}
	if c.BlockIndex(3, 2) != 3*4+2 {
		t.Errorf("BlockIndex = %d", c.BlockIndex(3, 2))
	}
}

func TestFindFrame(t *testing.T) {
	c := smallCache(t)
	c.Access(0x5440, true)
	set, way, ok := c.FindFrame(0x5440)
	if !ok {
		t.Fatal("frame not found")
	}
	if m := c.Meta(set, way); !m.Valid || m.Addr != 0x5440 {
		t.Fatalf("found wrong frame: %+v", m)
	}
	if _, _, ok := c.FindFrame(0xDEAD0000); ok {
		t.Error("absent block found")
	}
	// Faulty frames are not findable.
	c.SetFaulty(set, way, true)
	if _, _, ok := c.FindFrame(0x5440); ok {
		t.Error("faulty frame found")
	}
}
