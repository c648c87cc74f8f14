package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cacti"
	"repro/internal/device"
	"repro/internal/faultmap"
)

// policyRig builds a DPCS-mode controller plus policy with direct access
// to the underlying cache for synthetic access injection.
type policyRig struct {
	cache *cache.Cache
	ctrl  *Controller
	pol   *DPCSPolicy
	cfg   DPCSConfig
	now   uint64
}

func newPolicyRig(t testing.TB) *policyRig {
	t.Helper()
	c := cache.MustNew(cache.Config{Name: "p", SizeBytes: 16 << 10, Assoc: 4, BlockBytes: 64})
	levels := faultmap.MustLevels(0.54, 0.70, 1.00)
	m := faultmap.NewMap(levels, c.NumBlocks())
	for b := 0; b < c.NumBlocks(); b += 16 {
		m.SetFM(b, 1) // ~6% of blocks faulty at level 1 only
	}
	org := cacti.Org{Name: "p", SizeBytes: 16 << 10, Assoc: 4, BlockBytes: 64, AddrBits: 40}
	cm, err := cacti.New(org, device.Tech45SOI(), cacti.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(c, m, levels, cm.WithPCS(2), 2e9, 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DPCSConfig{
		Interval:          100,
		SuperInterval:     10,
		LowThreshold:      0.02,
		HighThreshold:     0.05,
		HitCycles:         2,
		MissPenaltyCycles: 100,
		SPCSLevel:         2,
	}
	pol, err := NewDPCS(cfg, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	return &policyRig{cache: c, ctrl: ctrl, pol: pol, cfg: cfg}
}

// runInterval injects one interval's worth of accesses with roughly the
// given miss rate (by alternating between a resident block and fresh
// addresses) and then ticks the policy, advancing a synthetic clock with
// cycles proportional to the observed cost.
func (r *policyRig) runInterval(t testing.TB, missFrac float64) uint64 {
	t.Helper()
	n := int(r.cfg.Interval)
	misses := int(missFrac * float64(n))
	// Resident block for hits.
	r.cache.Access(0x40, false)
	fresh := uint64(0x100000) * (uint64(r.now) + 1)
	for i := 0; i < n; i++ {
		if i < misses {
			addr := fresh + uint64(i)*64*256 // distinct sets, always miss
			res := r.cache.Access(addr, false)
			if res.Hit {
				t.Fatal("expected miss")
			}
			r.ctrl.NoteMiss(addr &^ 63)
			r.now += 100
		} else {
			r.cache.Access(0x40, false)
			r.now += 2
		}
	}
	return r.pol.Tick(r.now, nil)
}

func TestDPCSConfigValidation(t *testing.T) {
	good := DPCSConfig{Interval: 10, SuperInterval: 5, LowThreshold: 0.01,
		HighThreshold: 0.05, HitCycles: 2, MissPenaltyCycles: 100, SPCSLevel: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mod := func(f func(*DPCSConfig)) DPCSConfig { c := good; f(&c); return c }
	bads := []DPCSConfig{
		mod(func(c *DPCSConfig) { c.Interval = 0 }),
		mod(func(c *DPCSConfig) { c.SuperInterval = 2 }),
		mod(func(c *DPCSConfig) { c.LowThreshold = -0.1 }),
		mod(func(c *DPCSConfig) { c.HighThreshold = 0.005 }),
		mod(func(c *DPCSConfig) { c.HitCycles = 0 }),
		mod(func(c *DPCSConfig) { c.MissPenaltyCycles = 0 }),
		mod(func(c *DPCSConfig) { c.SPCSLevel = 0 }),
	}
	for i, b := range bads {
		if err := b.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewDPCSRequiresFaultMap(t *testing.T) {
	r := newRig(t, Baseline)
	_, err := NewDPCS(DPCSConfig{Interval: 10, SuperInterval: 5, LowThreshold: 0.01,
		HighThreshold: 0.05, HitCycles: 2, MissPenaltyCycles: 10, SPCSLevel: 2}, r.ctrl)
	if err == nil {
		t.Error("controller without a fault map accepted")
	}
}

func TestStartMovesToSPCSLevel(t *testing.T) {
	r := newPolicyRig(t)
	r.pol.Start(nil)
	if r.ctrl.Level() != 2 || r.ctrl.Transitions() != 1 {
		t.Fatalf("start level %d after %d transitions", r.ctrl.Level(), r.ctrl.Transitions())
	}
}

func TestPolicyDormantUntilArmed(t *testing.T) {
	r := newPolicyRig(t)
	r.pol.Start(nil)
	for i := 0; i < 5; i++ {
		r.runInterval(t, 0.0)
	}
	if r.ctrl.Level() != 2 || r.pol.Downs != 0 {
		t.Fatalf("unarmed policy acted: level %d downs %d", r.ctrl.Level(), r.pol.Downs)
	}
}

func TestDescendsWhenHarmless(t *testing.T) {
	r := newPolicyRig(t)
	r.pol.Start(nil)
	r.pol.Arm(r.now)
	// Interval 0 samples NAAT; interval 1 may descend.
	for i := 0; i < 4 && r.ctrl.Level() != 1; i++ {
		r.runInterval(t, 0.0)
	}
	if r.ctrl.Level() != 1 {
		t.Fatalf("policy did not descend on harmless workload: level %d", r.ctrl.Level())
	}
	if r.pol.Downs == 0 {
		t.Error("downs counter zero")
	}
}

func TestEscapesOnSustainedDegradation(t *testing.T) {
	r := newPolicyRig(t)
	r.pol.Start(nil)
	r.pol.Arm(r.now)
	// Establish NAAT at low miss rate, descend.
	r.runInterval(t, 0.0)
	for i := 0; i < 3 && r.ctrl.Level() != 1; i++ {
		r.runInterval(t, 0.0)
	}
	if r.ctrl.Level() != 1 {
		t.Fatal("did not descend")
	}
	// Now sustained misses (damage, since addresses are fresh — not the
	// invalidated refill set): CAAT and slowdown blow past the budget.
	for i := 0; i < 4 && r.ctrl.Level() == 1; i++ {
		r.runInterval(t, 0.5)
	}
	if r.ctrl.Level() != 2 {
		t.Fatalf("policy did not escape: level %d (ups=%d)", r.ctrl.Level(), r.pol.Ups)
	}
	if r.pol.Ups == 0 {
		t.Error("ups counter zero")
	}
}

func TestHoldLatchBlocksImmediateRedescent(t *testing.T) {
	r := newPolicyRig(t)
	r.pol.Start(nil)
	r.pol.Arm(r.now)
	r.runInterval(t, 0.0) // NAAT
	for i := 0; i < 3 && r.ctrl.Level() != 1; i++ {
		r.runInterval(t, 0.0)
	}
	for i := 0; i < 4 && r.ctrl.Level() == 1; i++ {
		r.runInterval(t, 0.5) // force escape
	}
	if r.ctrl.Level() != 2 {
		t.Fatal("precondition: escape did not happen")
	}
	// Harmless again, but still within the same super-interval and the
	// same miss-rate regime: the latch plus the bad-level memory must
	// prevent immediate redescent.
	downsBefore := r.pol.Downs
	r.runInterval(t, 0.5)
	if r.ctrl.Level() != 2 || r.pol.Downs != downsBefore {
		t.Fatalf("redescended immediately after escape: level %d", r.ctrl.Level())
	}
}

func TestBadVerdictClearsOnPhaseChange(t *testing.T) {
	r := newPolicyRig(t)
	r.pol.Start(nil)
	r.pol.Arm(r.now)
	r.runInterval(t, 0.4) // NAAT in a high-miss regime
	for i := 0; i < 3 && r.ctrl.Level() != 1; i++ {
		r.runInterval(t, 0.4)
	}
	for i := 0; i < 6 && r.ctrl.Level() == 1; i++ {
		r.runInterval(t, 0.9) // escape under heavy degradation
	}
	if r.ctrl.Level() != 2 {
		t.Skip("escape did not trigger in this configuration")
	}
	// Dramatic phase change to an always-hit regime: after the next
	// recalibration the policy may explore downward again.
	descended := false
	for i := 0; i < 3*r.cfg.SuperInterval && !descended; i++ {
		r.runInterval(t, 0.0)
		descended = r.ctrl.Level() == 1
	}
	if !descended {
		t.Error("policy never re-explored after a clear phase change")
	}
}

func TestNAATTracksWorkload(t *testing.T) {
	r := newPolicyRig(t)
	r.pol.Start(nil)
	r.pol.Arm(r.now)
	r.runInterval(t, 0.0)
	low := r.pol.NAAT()
	if low < 2 || low > 3 {
		t.Fatalf("NAAT %v for hit-only interval", low)
	}
}

func TestTransitionStallReturned(t *testing.T) {
	r := newPolicyRig(t)
	r.pol.Start(nil)
	r.pol.Arm(r.now)
	r.runInterval(t, 0.0) // NAAT sample, no transition
	var stall uint64
	for i := 0; i < 4 && stall == 0; i++ {
		stall = r.runInterval(t, 0.0)
	}
	// 2 cycles x 64 sets + 20 voltage settle = 148.
	if stall != 148 {
		t.Fatalf("descent stall %d, want 148", stall)
	}
}
