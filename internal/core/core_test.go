package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cacti"
	"repro/internal/device"
	"repro/internal/faultmap"
	"repro/internal/faultmodel"
	"repro/internal/sram"
	"repro/internal/stats"
)

// testRig bundles a small PCS cache for controller tests.
type testRig struct {
	cache  *cache.Cache
	fmap   *faultmap.Map
	levels faultmap.Levels
	ctrl   *Controller
}

func newRig(t *testing.T, mode Mode) *testRig {
	t.Helper()
	c := cache.MustNew(cache.Config{Name: "t", SizeBytes: 16 << 10, Assoc: 4, BlockBytes: 64})
	levels := faultmap.MustLevels(0.54, 0.70, 1.00)
	var m *faultmap.Map
	if mode != Baseline {
		m = faultmap.NewMap(levels, c.NumBlocks())
		// Deterministic fault pattern: every 8th block faulty at level 1,
		// every 32nd also at level 2.
		for b := 0; b < c.NumBlocks(); b++ {
			switch {
			case b%32 == 0:
				m.SetFM(b, 2)
			case b%8 == 0:
				m.SetFM(b, 1)
			}
		}
	}
	org := cacti.Org{Name: "t", SizeBytes: 16 << 10, Assoc: 4, BlockBytes: 64, AddrBits: 40}
	cm, err := cacti.New(org, device.Tech45SOI(), cacti.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if mode != Baseline {
		cm = cm.WithPCS(levels.FMBits())
	}
	ctrl, err := NewController(c, m, levels, cm, 2e9, 20)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{cache: c, fmap: m, levels: levels, ctrl: ctrl}
}

func TestControllerStartsAtTopLevel(t *testing.T) {
	r := newRig(t, SPCS)
	if r.ctrl.Level() != 3 || r.ctrl.VDD() != 1.00 {
		t.Fatalf("initial level %d VDD %v", r.ctrl.Level(), r.ctrl.VDD())
	}
	if r.ctrl.ActiveFraction() != 1 {
		t.Errorf("initial active fraction %v", r.ctrl.ActiveFraction())
	}
}

func TestTransitionSetsFaultyBits(t *testing.T) {
	r := newRig(t, SPCS)
	res := r.ctrl.Transition(2, 0, nil)
	if res.FromLevel != 3 || res.ToLevel != 2 {
		t.Fatalf("levels: %+v", res)
	}
	// FM=2 blocks (every 32nd of 256) are faulty at level 2: 8 blocks.
	if res.NewFaulty != 8 {
		t.Fatalf("new faulty %d, want 8", res.NewFaulty)
	}
	if got := r.cache.FaultyCount(); got != 8 {
		t.Fatalf("cache faulty count %d", got)
	}
	// Penalty: 2 cycles per set (64 sets) + 20 = 148.
	if res.PenaltyCycles != 148 {
		t.Fatalf("penalty %d, want 148", res.PenaltyCycles)
	}
	// Down to level 1: every 8th block (32) faulty in total.
	res = r.ctrl.Transition(1, 100, nil)
	if r.cache.FaultyCount() != 32 {
		t.Fatalf("faulty at level 1: %d, want 32", r.cache.FaultyCount())
	}
	if res.NewFaulty != 24 {
		t.Fatalf("newly faulty going 2->1: %d, want 24", res.NewFaulty)
	}
	// Back up: everything recovers.
	res = r.ctrl.Transition(3, 200, nil)
	if res.Recovered != 32 || r.cache.FaultyCount() != 0 {
		t.Fatalf("recovery: %+v, faulty %d", res, r.cache.FaultyCount())
	}
}

func TestTransitionWritesBackDirtyVictims(t *testing.T) {
	r := newRig(t, SPCS)
	// Dirty-fill block index 0's address (set 0): block 0 has FM=2.
	// Address mapping: set = blockNum % sets; make an address in set 0.
	r.cache.Access(0, true) // dirty block in set 0
	var wbs []uint64
	res := r.ctrl.Transition(2, 0, func(a uint64) { wbs = append(wbs, a) })
	// The dirty block was in set 0; whether it sat in the faulty way
	// depends on fill order (way 0 first), and block index 0 (set 0, way
	// 0) is faulty at level 2 -> it must have been written back.
	if res.Writebacks != 1 || len(wbs) != 1 || wbs[0] != 0 {
		t.Fatalf("writebacks: %+v addrs %v", res, wbs)
	}
	// Clean valid blocks that become faulty are invalidated silently.
	if res.Invalidations != 1 {
		t.Fatalf("invalidations %d", res.Invalidations)
	}
}

func TestTransitionPreservesHealthyBlocks(t *testing.T) {
	r := newRig(t, SPCS)
	// Fill several blocks in sets without level-2 faults.
	addrs := []uint64{64 * 1, 64 * 2, 64 * 3, 64 * 5}
	for _, a := range addrs {
		r.cache.Access(a, false)
	}
	r.ctrl.Transition(2, 0, nil)
	for _, a := range addrs {
		if !r.cache.Probe(a) {
			t.Errorf("healthy block %#x lost in transition", a)
		}
	}
	if err := r.cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyIntegration(t *testing.T) {
	r := newRig(t, SPCS)
	const cycles = 2e6 // 1 ms at 2 GHz
	e := r.ctrl.Energy(uint64(cycles))
	p := r.ctrl.Power.StaticPower(1.0, 1).TotalW
	want := p * (cycles / 2e9)
	if math.Abs(e.StaticJ-want)/want > 1e-9 {
		t.Fatalf("static energy %v, want %v", e.StaticJ, want)
	}
	if e.DynamicJ != 0 || e.TransitionJ != 0 {
		t.Errorf("unexpected dynamic/transition energy: %+v", e)
	}
}

func TestEnergyLowerAtReducedVDD(t *testing.T) {
	a := newRig(t, SPCS)
	b := newRig(t, SPCS)
	b.ctrl.Transition(2, 0, nil) // b runs at 0.70 V from cycle 0
	ea := a.ctrl.Energy(1e6)
	eb := b.ctrl.Energy(1e6)
	if eb.StaticJ >= ea.StaticJ {
		t.Fatalf("reduced-VDD static energy %v not below nominal %v", eb.StaticJ, ea.StaticJ)
	}
}

func TestOnAccessAccumulatesDynamicEnergy(t *testing.T) {
	r := newRig(t, SPCS)
	r.ctrl.OnAccess(false)
	r.ctrl.OnAccess(true)
	r.ctrl.OnFill()
	e := r.ctrl.Energy(0)
	if e.DynamicJ <= 0 {
		t.Fatal("no dynamic energy accumulated")
	}
}

func TestTimeAtLevelAccounting(t *testing.T) {
	r := newRig(t, SPCS)
	r.ctrl.Transition(2, 1000, nil) // 1000 cycles at level 3
	r.ctrl.Energy(4000)             // 3000 cycles at level 2
	tl := r.ctrl.TimeAtLevelCycles()
	if tl[2] != 1000 || tl[1] != 3000 || tl[0] != 0 {
		t.Fatalf("time at levels: %v", tl)
	}
}

func TestAdvanceToPanicsOnTimeTravel(t *testing.T) {
	r := newRig(t, SPCS)
	r.ctrl.AdvanceTo(100)
	defer func() {
		if recover() == nil {
			t.Error("backwards time accepted")
		}
	}()
	r.ctrl.AdvanceTo(50)
}

func TestBaselineControllerRejectsTransition(t *testing.T) {
	c := cache.MustNew(cache.Config{Name: "b", SizeBytes: 16 << 10, Assoc: 4, BlockBytes: 64})
	org := cacti.Org{Name: "b", SizeBytes: 16 << 10, Assoc: 4, BlockBytes: 64, AddrBits: 40}
	cm, _ := cacti.New(org, device.Tech45SOI(), cacti.DefaultParams())
	ctrl, err := NewController(c, nil, faultmap.MustLevels(1.0), cm, 2e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("baseline transition accepted")
		}
	}()
	ctrl.Transition(1, 0, nil)
}

func TestNewControllerValidation(t *testing.T) {
	r := newRig(t, SPCS)
	levels := r.levels
	org := cacti.Org{Name: "t", SizeBytes: 16 << 10, Assoc: 4, BlockBytes: 64, AddrBits: 40}
	cm, _ := cacti.New(org, device.Tech45SOI(), cacti.DefaultParams())
	if _, err := NewController(r.cache, r.fmap, faultmap.MustLevels(0.70, 1.00), cm, 2e9, 0); err == nil {
		t.Error("map of three levels accepted for two")
	}
	wrongMap := faultmap.NewMap(levels, 8)
	if _, err := NewController(r.cache, wrongMap, levels, cm, 2e9, 0); err == nil {
		t.Error("mismatched map size accepted")
	}
	if _, err := NewController(r.cache, r.fmap, levels, cm, 0, 0); err == nil {
		t.Error("zero clock accepted")
	}
	if _, err := NewController(nil, r.fmap, levels, cm, 2e9, 0); err == nil {
		t.Error("nil cache accepted")
	}
}

func TestRefillMissClassification(t *testing.T) {
	r := newRig(t, SPCS)
	// Fill a block that becomes faulty at level 2: block index 0 = set 0
	// way 0 (FM=2). Address 0 maps to set 0 and fills way 0 first.
	r.cache.Access(0, false)
	r.ctrl.Transition(2, 0, nil) // invalidates it
	r.ctrl.NoteMiss(0)
	if got := r.ctrl.RefillMisses(); got != 1 {
		t.Fatalf("refill misses %d, want 1", got)
	}
	// A second miss on the same block is damage, not refill.
	r.ctrl.NoteMiss(0)
	if got := r.ctrl.RefillMisses(); got != 1 {
		t.Fatalf("refill counted twice: %d", got)
	}
	// Unrelated misses are not refills.
	r.ctrl.NoteMiss(0x4000)
	if got := r.ctrl.RefillMisses(); got != 1 {
		t.Fatalf("unrelated miss classified as refill")
	}
}

func TestModeString(t *testing.T) {
	if Baseline.String() != "baseline" || SPCS.String() != "SPCS" || DPCS.String() != "DPCS" {
		t.Error("mode strings")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode string empty")
	}
}

// TestParseMode checks every mode name resolves in any case and with
// surrounding space, and an unknown name fails.
func TestParseMode(t *testing.T) {
	for _, m := range []Mode{Baseline, SPCS, DPCS} {
		for _, name := range []string{m.String(), strings.ToLower(m.String()), strings.ToUpper(m.String()), " \t" + m.String() + "\n"} {
			got, err := ParseMode(name)
			if err != nil || got != m {
				t.Errorf("ParseMode(%q) = %v, %v; want %v", name, got, err, m)
			}
		}
	}
	if _, err := ParseMode("nosuch"); err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Errorf("ParseMode(nosuch) error = %v", err)
	}
}

// --- level selection and map population ---

func TestSelectLevels(t *testing.T) {
	geom := faultmodel.Geometry{Sets: 256, Ways: 4, BlockBits: 512}
	fm, err := faultmodel.New(geom, sram.NewWangCalhounBER())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := SelectLevels(fm, 1.0, 0.30, faultmodel.VDD1CapacityFloor(4))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Levels.N() != 3 {
		t.Fatalf("levels N = %d", plan.Levels.N())
	}
	if plan.SPCSLevel != 2 {
		t.Fatalf("SPCS level %d", plan.SPCSLevel)
	}
	if plan.Levels.Volts(3) != 1.0 {
		t.Error("top level not nominal")
	}
	if fm.ExpectedCapacity(plan.Levels.Volts(plan.SPCSLevel)) < 0.99 {
		t.Error("SPCS voltage violates 99% capacity")
	}
}

func TestPopulateMapMonteCarloStatistics(t *testing.T) {
	geom := faultmodel.Geometry{Sets: 4096, Ways: 8, BlockBits: 512}
	fm, _ := faultmodel.New(geom, sram.NewWangCalhounBER())
	plan, err := SelectLevels(fm, 1.0, 0.30, faultmodel.VDD1CapacityFloor(8))
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(1)
	m := PopulateMapMonteCarlo(rng, plan, geom.Blocks())
	// Observed faulty fraction at each level must match the analytical
	// block-failure probability.
	for k := 1; k <= plan.Levels.N(); k++ {
		want := fm.PBlockFail(plan.Levels.Volts(k))
		got := float64(m.FaultyCount(k)) / float64(geom.Blocks())
		tol := 4 * math.Sqrt(want*(1-want)/float64(geom.Blocks())) // ~4 sigma
		if math.Abs(got-want) > tol+1e-6 {
			t.Errorf("level %d faulty fraction %v, want %v +- %v", k, got, want, tol)
		}
	}
	if err := m.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
}

func TestPopulateMapDeterministic(t *testing.T) {
	geom := faultmodel.Geometry{Sets: 64, Ways: 4, BlockBits: 512}
	fm, _ := faultmodel.New(geom, sram.NewWangCalhounBER())
	plan, _ := SelectLevels(fm, 1.0, 0.30, faultmodel.VDD1CapacityFloor(4))
	a := PopulateMapMonteCarlo(stats.NewRNG(9), plan, geom.Blocks())
	b := PopulateMapMonteCarlo(stats.NewRNG(9), plan, geom.Blocks())
	for i := 0; i < geom.Blocks(); i++ {
		if a.FM(i) != b.FM(i) {
			t.Fatalf("same-seed maps differ at block %d", i)
		}
	}
}

func TestEnsureAndRepairSets(t *testing.T) {
	levels := faultmap.MustLevels(0.5, 1.0)
	m := faultmap.NewMap(levels, 16) // 4 sets x 4 ways
	// Kill set 2 completely at level 1.
	for w := 0; w < 4; w++ {
		m.SetFM(2*4+w, 1)
	}
	bad := EnsureSetsUsable(m, 4, 4, 1)
	if len(bad) != 1 || bad[0] != 2 {
		t.Fatalf("bad sets: %v", bad)
	}
	RepairSets(m, 4, bad)
	if bad := EnsureSetsUsable(m, 4, 4, 1); len(bad) != 0 {
		t.Fatalf("repair failed: %v", bad)
	}
}

func TestTransitionBookkeepingAccessors(t *testing.T) {
	r := newRig(t, SPCS)
	r.cache.Access(0, true) // dirty block in a level-2-faulty frame
	res := r.ctrl.Transition(2, 0, nil)
	if res.ToLevel != 2 {
		t.Fatal("transition level")
	}
	if r.ctrl.Transitions() != 1 {
		t.Errorf("transitions %d", r.ctrl.Transitions())
	}
	if r.ctrl.TransitionCycles() != res.PenaltyCycles {
		t.Errorf("transition cycles %d != %d", r.ctrl.TransitionCycles(), res.PenaltyCycles)
	}
	if r.ctrl.TransitionWritebacks() != uint64(res.Writebacks) {
		t.Errorf("transition writebacks %d != %d",
			r.ctrl.TransitionWritebacks(), res.Writebacks)
	}
}
