// Package mechanism_test exercises the registry from outside so it can
// import internal/expers for the shared cache setups: expers imports
// mechanism, but the external test package sees both without a cycle.
// The differential tests pin every adapter to the direct model call
// path the Fig. 3 code used before the registry existed — float for
// float, so the golden analytical tables cannot drift through the
// refactor.
package mechanism_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ecc"
	"repro/internal/expers"
	"repro/internal/faultmodel"
	"repro/internal/fftcache"
	"repro/internal/mechanism"
	"repro/internal/waygate"
)

// testSetup builds the L1-A setup at the paper's three-level ladder
// (nLowVDDs = 2), as Fig. 3b/3d and the min-VDD table use it.
func testSetup(t *testing.T) (*expers.CacheSetup, mechanism.Setup) {
	t.Helper()
	cs, err := expers.NewCacheSetup(expers.L1ConfigA(), 3)
	if err != nil {
		t.Fatalf("NewCacheSetup: %v", err)
	}
	return cs, cs.MechanismSetup(2)
}

func newMech(t *testing.T, s mechanism.Setup, name string) mechanism.Mechanism {
	t.Helper()
	d, ok := mechanism.ByName(name)
	if !ok {
		t.Fatalf("mechanism %q not registered", name)
	}
	m, err := d.New(s)
	if err != nil {
		t.Fatalf("build %q: %v", name, err)
	}
	return m
}

func TestRegistryOrderAndDefaults(t *testing.T) {
	all := mechanism.All()
	if len(all) < 8 {
		t.Fatalf("registry has %d mechanisms, want >= 8", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Rank >= all[i].Rank {
			t.Errorf("registry not rank-sorted: %s (%d) before %s (%d)",
				all[i-1].Name, all[i-1].Rank, all[i].Name, all[i].Rank)
		}
	}
	wantDefaults := []string{"conventional", "secded", "dected", "waygate", "fftcache", "proposed"}
	got := mechanism.DefaultNames()
	if len(got) != len(wantDefaults) {
		t.Fatalf("DefaultNames = %v, want %v", got, wantDefaults)
	}
	for i := range got {
		if got[i] != wantDefaults[i] {
			t.Fatalf("DefaultNames = %v, want %v", got, wantDefaults)
		}
	}
	for _, name := range []string{"tscache", "l2c2"} {
		d, ok := mechanism.ByName(name)
		if !ok {
			t.Fatalf("new competitor %q not registered", name)
		}
		if d.Default {
			t.Errorf("%q must not be in the default comparison set", name)
		}
	}
}

func TestResolveSelection(t *testing.T) {
	ds, err := mechanism.Resolve(nil)
	if err != nil {
		t.Fatalf("Resolve(nil): %v", err)
	}
	if len(ds) != len(mechanism.DefaultNames()) {
		t.Errorf("Resolve(nil) = %d entries, want the %d defaults", len(ds), len(mechanism.DefaultNames()))
	}
	// Selections come back in rank order regardless of request order.
	ds, err = mechanism.Resolve([]string{"proposed", "tscache", "l2c2"})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	wantOrder := []string{"tscache", "l2c2", "proposed"}
	for i, d := range ds {
		if d.Name != wantOrder[i] {
			t.Errorf("Resolve order[%d] = %s, want %s", i, d.Name, wantOrder[i])
		}
	}
	if _, err := mechanism.Resolve([]string{"nosuch"}); err == nil || !strings.Contains(err.Error(), "unknown mechanism") {
		t.Errorf("Resolve(nosuch) error = %v, want unknown-mechanism", err)
	}
	if _, err := mechanism.Resolve([]string{"proposed", "proposed"}); err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Errorf("Resolve(dup) error = %v, want listed-twice", err)
	}
}

// TestAdapterDifferentialProposed pins the proposed adapter to the
// faultmodel/cacti call path of the pre-registry fig3a/fig3d code.
func TestAdapterDifferentialProposed(t *testing.T) {
	cs, s := testSetup(t)
	m := newMech(t, s, "proposed")
	for _, v := range faultmodel.Grid(expers.VLo, expers.VHi) {
		if got, want := m.Yield(v), cs.FM.Yield(v); got != want {
			t.Fatalf("proposed Yield(%.2f) = %v, want %v", v, got, want)
		}
		capacity := cs.FM.ExpectedCapacity(v)
		if got := m.EffectiveCapacity(v); got != capacity {
			t.Fatalf("proposed EffectiveCapacity(%.2f) = %v, want %v", v, got, capacity)
		}
		if got, want := m.StaticPower(cs.CM, v), cs.CMPCS.StaticPower(v, capacity).TotalW; got != want {
			t.Fatalf("proposed StaticPower(%.2f) = %v, want %v", v, got, want)
		}
	}
	gv, gok := m.MinVDDForYield(0.99, expers.VLo, expers.VHi)
	wv, wok := cs.FM.MinVDDForYield(0.99, expers.VLo, expers.VHi)
	if gv != wv || gok != wok {
		t.Errorf("proposed MinVDD = (%v, %v), want (%v, %v)", gv, gok, wv, wok)
	}
}

// TestAdapterDifferentialFFTCache pins the FFT-Cache adapter to a
// directly-constructed fftcache.Model.
func TestAdapterDifferentialFFTCache(t *testing.T) {
	cs, s := testSetup(t)
	m := newMech(t, s, "fftcache")
	direct := fftcache.New(cs.FM.Geom, cs.BER, fftcache.DefaultParams(), 2)
	for _, v := range faultmodel.Grid(expers.VLo, expers.VHi) {
		if got, want := m.Yield(v), direct.Yield(v); got != want {
			t.Fatalf("fftcache Yield(%.2f) = %v, want %v", v, got, want)
		}
		if got, want := m.EffectiveCapacity(v), direct.EffectiveCapacity(v); got != want {
			t.Fatalf("fftcache EffectiveCapacity(%.2f) = %v, want %v", v, got, want)
		}
		if got, want := m.StaticPower(cs.CM, v), direct.StaticPower(cs.CM, v); got != want {
			t.Fatalf("fftcache StaticPower(%.2f) = %v, want %v", v, got, want)
		}
	}
	gv, gok := m.MinVDDForYield(0.99, expers.VLo, expers.VHi)
	wv, wok := direct.MinVDDForYield(0.99, expers.VLo, expers.VHi)
	if gv != wv || gok != wok {
		t.Errorf("fftcache MinVDD = (%v, %v), want (%v, %v)", gv, gok, wv, wok)
	}
}

// TestAdapterDifferentialWayGate pins the way-gating adapter's step
// curve and power to a directly-constructed waygate.Model.
func TestAdapterDifferentialWayGate(t *testing.T) {
	cs, s := testSetup(t)
	m := newMech(t, s, "waygate")
	direct := waygate.New(cs.CM)
	sc, ok := m.(mechanism.StepCurver)
	if !ok {
		t.Fatal("waygate adapter does not implement StepCurver")
	}
	caps, watts := sc.PowerCapacityCurve()
	wcaps, wwatts := direct.PowerCapacityCurve()
	if len(caps) != len(wcaps) {
		t.Fatalf("waygate curve has %d points, want %d", len(caps), len(wcaps))
	}
	for i := range caps {
		if caps[i] != wcaps[i] || watts[i] != wwatts[i] {
			t.Fatalf("waygate curve[%d] = (%v, %v), want (%v, %v)", i, caps[i], watts[i], wcaps[i], wwatts[i])
		}
	}
	if got, want := m.StaticPower(cs.CM, 0.5), direct.StaticPower(cs.Org.Assoc); got != want {
		t.Errorf("waygate StaticPower = %v, want all-ways power %v", got, want)
	}
	if y := m.Yield(0.3); y != 1 {
		t.Errorf("waygate Yield = %v, want 1 (never leaves nominal)", y)
	}
}

// TestAdapterDifferentialECC pins the conventional/SECDED/DECTED
// adapters to directly-constructed ecc.YieldModels.
func TestAdapterDifferentialECC(t *testing.T) {
	cs, s := testSetup(t)
	direct := map[string]ecc.YieldModel{
		"conventional": ecc.NewConventional(cs.BER, cs.FM.Geom),
		"secded":       ecc.NewSECDED(cs.BER, cs.FM.Geom),
		"dected":       ecc.NewDECTED(cs.BER, cs.FM.Geom),
	}
	for name, dm := range direct {
		m := newMech(t, s, name)
		for _, v := range faultmodel.Grid(expers.VLo, expers.VHi) {
			if got, want := m.Yield(v), dm.Yield(v); got != want {
				t.Fatalf("%s Yield(%.2f) = %v, want %v", name, v, got, want)
			}
		}
		gv, gok := m.MinVDDForYield(0.99, expers.VLo, expers.VHi)
		wv, wok := dm.MinVDD(0.99, expers.VLo, expers.VHi)
		if gv != wv || gok != wok {
			t.Errorf("%s MinVDD = (%v, %v), want (%v, %v)", name, gv, gok, wv, wok)
		}
		if cap := m.EffectiveCapacity(0.5); cap != 1 {
			t.Errorf("%s EffectiveCapacity = %v, want 1 (in-place correction)", name, cap)
		}
	}
	if ao := newMech(t, s, "conventional").AreaOverhead(); ao.Fraction != 0 {
		t.Errorf("conventional area overhead = %v, want 0", ao.Fraction)
	}
}

// TestTSCacheModel checks the timing-speculation model's shape: only
// hard faults cost capacity (so it dominates the proposed scheme's
// capacity), the replay penalty is non-negative and vanishes at
// nominal voltage, and the scheme-specific table renders.
func TestTSCacheModel(t *testing.T) {
	cs, s := testSetup(t)
	m := newMech(t, s, "tscache")
	pen, ok := m.(interface{ LatencyPenalty(float64) float64 })
	if !ok {
		t.Fatal("tscache does not expose LatencyPenalty")
	}
	for _, v := range faultmodel.Grid(expers.VLo, expers.VHi) {
		propCap := cs.FM.ExpectedCapacity(v)
		if got := m.EffectiveCapacity(v); got < propCap {
			t.Fatalf("tscache capacity(%.2f) = %v < proposed %v: hard faults must be a subset", v, got, propCap)
		}
		if y := m.Yield(v); y < cs.FM.Yield(v) {
			t.Fatalf("tscache yield(%.2f) = %v < proposed %v", v, y, cs.FM.Yield(v))
		}
		if p := pen.LatencyPenalty(v); p < 0 {
			t.Fatalf("tscache penalty(%.2f) = %v < 0", v, p)
		}
	}
	if p := pen.LatencyPenalty(1.0); p > 1e-6 {
		t.Errorf("tscache penalty at nominal = %v, want ~0", p)
	}
	tb, ok := m.(mechanism.Tabler)
	if !ok {
		t.Fatal("tscache does not implement Tabler")
	}
	tables := tb.Tables(expers.VLo, expers.VHi)
	if len(tables) != 1 || len(tables[0].Rows) == 0 {
		t.Fatalf("tscache Tables: got %d tables", len(tables))
	}
}

// TestL2C2Model checks the compressed-salvaging model: salvaging
// recovers capacity the proposed scheme writes off, the salvage
// probability is a probability, and the scheme-specific table renders.
func TestL2C2Model(t *testing.T) {
	cs, s := testSetup(t)
	m := newMech(t, s, "l2c2")
	salv, ok := m.(interface{ SalvageProb(float64) float64 })
	if !ok {
		t.Fatal("l2c2 does not expose SalvageProb")
	}
	for _, v := range faultmodel.Grid(expers.VLo, expers.VHi) {
		if p := salv.SalvageProb(v); p < 0 || p > 1 {
			t.Fatalf("l2c2 SalvageProb(%.2f) = %v outside [0, 1]", v, p)
		}
		propCap := cs.FM.ExpectedCapacity(v)
		if got := m.EffectiveCapacity(v); got < propCap {
			t.Fatalf("l2c2 capacity(%.2f) = %v < proposed %v: salvage only adds", v, got, propCap)
		}
		if y := m.Yield(v); y < cs.FM.Yield(v) {
			t.Fatalf("l2c2 yield(%.2f) = %v < proposed %v", v, y, cs.FM.Yield(v))
		}
	}
	if _, ok := m.(mechanism.Tabler); !ok {
		t.Fatal("l2c2 does not implement Tabler")
	}
}

// scanMinVDD is the reference for the mechanisms' min-VDD search: it
// walks the grid upward and returns the first point at which meets
// holds.
func scanMinVDD(lo, hi float64, meets func(float64) bool) (float64, bool) {
	for _, v := range faultmodel.Grid(lo, hi) {
		if meets(v) {
			return v, true
		}
	}
	return 0, false
}

// TestRegistryPhysicsProperties checks every registered mechanism on
// the four Table-2 organisations with one to three low voltages. Yield,
// effective capacity and static power never fall as VDD rises over
// [VLo, VHi], with no tolerance. MinVDDForYield, which bisects the grid
// and so relies on that, returns what a scan up the grid returns at
// every yield target: a voltage that meets the target above a grid
// point that does not. Way gating never leaves nominal VDD, so its
// min-VDD is nominal at any target.
func TestRegistryPhysicsProperties(t *testing.T) {
	vs := faultmodel.Grid(expers.VLo, expers.VHi)
	for _, orgName := range []string{"l1a", "l2a", "l1b", "l2b"} {
		org, err := expers.OrgByName(orgName)
		if err != nil {
			t.Fatal(err)
		}
		for nLow := 1; nLow <= 3; nLow++ {
			cs, err := expers.NewCacheSetup(org, nLow+1)
			if err != nil {
				t.Fatalf("NewCacheSetup(%s, %d): %v", orgName, nLow+1, err)
			}
			s := cs.MechanismSetup(nLow)
			for _, d := range mechanism.All() {
				m := newMech(t, s, d.Name)
				cell := fmt.Sprintf("%s on %s with %d low VDDs", d.Name, orgName, nLow)
				curves := []struct {
					what string
					at   func(float64) float64
				}{
					{"yield", m.Yield},
					{"effective capacity", m.EffectiveCapacity},
					{"static power", func(v float64) float64 { return m.StaticPower(cs.CM, v) }},
				}
				for _, c := range curves {
					for i := 1; i < len(vs); i++ {
						if lo, hi := c.at(vs[i-1]), c.at(vs[i]); hi < lo {
							t.Errorf("%s: %s fell from %v to %v at %.2f V", cell, c.what, lo, hi, vs[i])
						}
					}
				}
				for _, target := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 1} {
					got, ok := m.MinVDDForYield(target, expers.VLo, expers.VHi)
					if d.Name == "waygate" {
						if got != s.Tech.VDDNom || !ok {
							t.Errorf("%s: min VDD at yield %v = (%v, %v), want nominal %v", cell, target, got, ok, s.Tech.VDDNom)
						}
						continue
					}
					meets := func(v float64) bool { return m.Yield(v) >= target }
					want, wantOK := scanMinVDD(expers.VLo, expers.VHi, meets)
					if got != want || ok != wantOK {
						t.Errorf("%s: min VDD at yield %v = (%v, %v), scan gives (%v, %v)", cell, target, got, ok, want, wantOK)
					} else if ok && (!meets(got) || got > expers.VLo && meets(math.Round((got-faultmodel.VStep)*100)/100)) {
						t.Errorf("%s: %.2f V is not the lowest grid point meeting yield %v", cell, got, target)
					}
				}
			}
		}
	}
}
