package faultmodel

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sram"
)

func l1AGeom() Geometry { return Geometry{Sets: 256, Ways: 4, BlockBits: 512} }

func mustModel(t *testing.T, g Geometry) *Model {
	t.Helper()
	m, err := New(g, sram.NewWangCalhounBER())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGeometryValidate(t *testing.T) {
	if err := l1AGeom().Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Geometry{
		{Sets: 0, Ways: 4, BlockBits: 512},
		{Sets: 256, Ways: 0, BlockBits: 512},
		{Sets: 256, Ways: 4, BlockBits: 0},
	}
	for i, g := range bads {
		if err := g.Validate(); err == nil {
			t.Errorf("bad geometry %d validated", i)
		}
	}
	if l1AGeom().Blocks() != 1024 {
		t.Errorf("Blocks = %d", l1AGeom().Blocks())
	}
}

func TestNewRejectsNilBER(t *testing.T) {
	if _, err := New(l1AGeom(), nil); err == nil {
		t.Error("nil BER accepted")
	}
}

func TestPFailBits(t *testing.T) {
	if got := PFailBits(0, 512); got != 0 {
		t.Errorf("PFailBits(0) = %v", got)
	}
	if got := PFailBits(1, 512); got != 1 {
		t.Errorf("PFailBits(1) = %v", got)
	}
	// Small-BER approximation: p ~ n*ber.
	ber := 1e-9
	got := PFailBits(ber, 512)
	want := 512 * ber
	if math.Abs(got-want)/want > 1e-4 {
		t.Errorf("PFailBits small = %v, want ~%v", got, want)
	}
	// Exact check against direct power for moderate BER.
	ber = 0.01
	exact := 1 - math.Pow(1-ber, 512)
	if got := PFailBits(ber, 512); math.Abs(got-exact) > 1e-12 {
		t.Errorf("PFailBits(0.01,512) = %v, want %v", got, exact)
	}
}

func TestBlockFailMonotoneInVoltage(t *testing.T) {
	m := mustModel(t, l1AGeom())
	prev := 1.0
	for _, v := range Grid(0.30, 1.00) {
		p := m.PBlockFail(v)
		if p > prev+1e-15 {
			t.Fatalf("block fail rose with voltage at %v", v)
		}
		prev = p
	}
}

func TestCapacityComplementsBlockFail(t *testing.T) {
	m := mustModel(t, l1AGeom())
	if err := quick.Check(func(raw uint8) bool {
		v := 0.3 + float64(raw%71)/100
		return math.Abs(m.ExpectedCapacity(v)+m.PBlockFail(v)-1) < 1e-12
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestYieldFormula(t *testing.T) {
	m := mustModel(t, l1AGeom())
	v := 0.50
	p := m.PBlockFail(v)
	want := math.Pow(1-math.Pow(p, 4), 256)
	if got := m.Yield(v); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("yield %v, want %v", got, want)
	}
}

func TestYieldBounds(t *testing.T) {
	m := mustModel(t, l1AGeom())
	for _, v := range Grid(0.30, 1.00) {
		y := m.Yield(v)
		if y < 0 || y > 1 {
			t.Fatalf("yield %v out of [0,1] at %v V", y, v)
		}
	}
	if y := m.Yield(1.0); y < 0.999 {
		t.Errorf("nominal yield %v", y)
	}
}

func TestYieldImprovesWithAssociativity(t *testing.T) {
	// Same total blocks, higher associativity: yield must not decrease.
	low := mustModel(t, Geometry{Sets: 512, Ways: 2, BlockBits: 512})
	high := mustModel(t, Geometry{Sets: 128, Ways: 8, BlockBits: 512})
	for _, v := range []float64{0.40, 0.50, 0.60} {
		if high.Yield(v) < low.Yield(v) {
			t.Errorf("8-way yield %v < 2-way yield %v at %v V",
				high.Yield(v), low.Yield(v), v)
		}
	}
}

func TestMinVDDLowerForHigherAssoc(t *testing.T) {
	// The paper's Sec 3.1 claim: higher associativity naturally results
	// in lower min-VDD (at the same cache size).
	low := mustModel(t, Geometry{Sets: 512, Ways: 2, BlockBits: 512})
	high := mustModel(t, Geometry{Sets: 64, Ways: 16, BlockBits: 512})
	vLow, ok1 := low.MinVDDForYield(0.99, 0.30, 1.00)
	vHigh, ok2 := high.MinVDDForYield(0.99, 0.30, 1.00)
	if !ok1 || !ok2 {
		t.Fatal("min VDD not found")
	}
	if vHigh >= vLow {
		t.Errorf("16-way min VDD %v not below 2-way %v", vHigh, vLow)
	}
}

func TestMinVDDLowerForSmallerBlocks(t *testing.T) {
	big := mustModel(t, Geometry{Sets: 256, Ways: 4, BlockBits: 1024})
	small := mustModel(t, Geometry{Sets: 512, Ways: 4, BlockBits: 512})
	vBig, _ := big.MinVDDForYield(0.99, 0.30, 1.00)
	vSmall, _ := small.MinVDDForYield(0.99, 0.30, 1.00)
	if vSmall > vBig {
		t.Errorf("smaller blocks min VDD %v above larger %v", vSmall, vBig)
	}
}

func TestVDDLevelsOrdering(t *testing.T) {
	m := mustModel(t, l1AGeom())
	v1, v2, v3, err := m.VDDLevels(1.0, 0.30, VDD1CapacityFloor(4))
	if err != nil {
		t.Fatal(err)
	}
	if !(v1 <= v2 && v2 < v3) {
		t.Fatalf("levels not ordered: %v %v %v", v1, v2, v3)
	}
	if v3 != 1.0 {
		t.Errorf("VDD3 = %v", v3)
	}
	// VDD2 must honour the 99% capacity rule.
	if m.ExpectedCapacity(v2) < 0.99 {
		t.Errorf("capacity at VDD2 %v = %v", v2, m.ExpectedCapacity(v2))
	}
	if v2 > 0.30 && m.ExpectedCapacity(v2-VStep) >= 0.99 && m.Yield(v2-VStep) >= 0.99 {
		t.Errorf("VDD2 %v not minimal", v2)
	}
	// VDD1 must honour the yield and capacity-floor rules.
	if m.Yield(v1) < 0.99 {
		t.Errorf("yield at VDD1 %v = %v", v1, m.Yield(v1))
	}
	if m.ExpectedCapacity(v1) < VDD1CapacityFloor(4) {
		t.Errorf("capacity at VDD1 %v = %v", v1, m.ExpectedCapacity(v1))
	}
}

func TestVDDLevelsMatchPaperTable2Shape(t *testing.T) {
	// Config A: L1 64KB 4-way, L2 2MB 8-way. The paper's Table 2 has the
	// SPCS voltage near 0.7 V for both, with the L2 VDD1 above 0.5 V.
	l1 := mustModel(t, Geometry{Sets: 256, Ways: 4, BlockBits: 512})
	l2 := mustModel(t, Geometry{Sets: 4096, Ways: 8, BlockBits: 512})
	_, v2l1, _, err := l1.VDDLevels(1.0, 0.30, VDD1CapacityFloor(4))
	if err != nil {
		t.Fatal(err)
	}
	if v2l1 < 0.65 || v2l1 > 0.75 {
		t.Errorf("L1 SPCS voltage %v outside Table 2's ~0.7", v2l1)
	}
	v1l2, v2l2, _, err := l2.VDDLevels(1.0, 0.30, VDD1CapacityFloor(8))
	if err != nil {
		t.Fatal(err)
	}
	if v2l2 < 0.65 || v2l2 > 0.75 {
		t.Errorf("L2 SPCS voltage %v outside ~0.7", v2l2)
	}
	if v1l2 < 0.50 || v1l2 >= v2l2 {
		t.Errorf("L2 VDD1 %v implausible", v1l2)
	}
}

func TestVDD1CapacityFloor(t *testing.T) {
	if f := VDD1CapacityFloor(4); math.Abs(f-(1-4*VDD1LossPerWay)) > 1e-12 {
		t.Errorf("floor(4) = %v", f)
	}
	if f := VDD1CapacityFloor(100); f != 1-VDD1MaxLoss {
		t.Errorf("floor cap not applied: %v", f)
	}
	if VDD1CapacityFloor(16) >= VDD1CapacityFloor(4) {
		t.Error("floor should loosen with associativity")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(0.30, 1.00)
	if len(g) != 71 {
		t.Fatalf("grid has %d points", len(g))
	}
	if g[0] != 0.30 || g[len(g)-1] != 1.00 {
		t.Fatalf("grid endpoints %v..%v", g[0], g[len(g)-1])
	}
	for i := 1; i < len(g); i++ {
		if math.Abs(g[i]-g[i-1]-VStep) > 1e-9 {
			t.Fatalf("grid step at %d: %v", i, g[i]-g[i-1])
		}
	}
	// Reversed bounds still work.
	if len(Grid(1.00, 0.30)) != 71 {
		t.Error("reversed grid wrong")
	}
}

// propertyGeometries spans 1 KB to 64 MB, 1 to 64 ways and 16 to 128 B
// blocks, every power of two, leaving out the shapes with no set.
func propertyGeometries() []Geometry {
	var gs []Geometry
	for size := 1 << 10; size <= 64<<20; size <<= 1 {
		for ways := 1; ways <= 64; ways <<= 1 {
			for block := 16; block <= 128; block <<= 1 {
				if sets := size / (block * ways); sets > 0 {
					gs = append(gs, Geometry{Sets: sets, Ways: ways, BlockBits: block * 8})
				}
			}
		}
	}
	return gs
}

// TestModelMonotoneInVoltage checks, with no tolerance, that yield and
// expected capacity never fall as VDD rises over 0.20-1.20 V on every
// property geometry: MinVDD's bisection returns the lowest qualifying
// grid point only because of it.
func TestModelMonotoneInVoltage(t *testing.T) {
	vs := Grid(0.20, 1.20)
	for _, g := range propertyGeometries() {
		m := mustModel(t, g)
		for i := 1; i < len(vs); i++ {
			if y0, y1 := m.Yield(vs[i-1]), m.Yield(vs[i]); y1 < y0 {
				t.Fatalf("%+v: yield fell from %v to %v at %.2f V", g, y0, y1, vs[i])
			}
			if c0, c1 := m.ExpectedCapacity(vs[i-1]), m.ExpectedCapacity(vs[i]); c1 < c0 {
				t.Fatalf("%+v: capacity fell from %v to %v at %.2f V", g, c0, c1, vs[i])
			}
		}
	}
}

// scanMinVDD is the reference for MinVDD: it walks Grid(lo, hi) upward
// and returns the first point at which meets holds.
func scanMinVDD(lo, hi float64, meets func(float64) bool) (float64, bool) {
	for _, v := range Grid(lo, hi) {
		if meets(v) {
			return v, true
		}
	}
	return 0, false
}

// TestMinVDDMatchesScan checks both solvers on every property geometry
// against the scan over [0.30, 1.00], and that each answer meets its
// target while the grid point below it does not.
func TestMinVDDMatchesScan(t *testing.T) {
	yields := []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 1}
	check := func(what string, got float64, ok bool, meets func(float64) bool) {
		t.Helper()
		want, wantOK := scanMinVDD(0.30, 1.00, meets)
		if got != want || ok != wantOK {
			t.Fatalf("%s: (%v, %v), scan gives (%v, %v)", what, got, ok, want, wantOK)
		}
		if ok && (!meets(got) || got > 0.30 && meets(math.Round((got-VStep)*100)/100)) {
			t.Fatalf("%s: %.2f V is not the lowest grid point meeting the target", what, got)
		}
	}
	for _, g := range propertyGeometries() {
		m := mustModel(t, g)
		for _, y := range yields {
			v, ok := m.MinVDDForYield(y, 0.30, 1.00)
			check(fmt.Sprintf("%+v yield %v", g, y), v, ok, func(v float64) bool { return m.Yield(v) >= y })
			for _, c := range []float64{0.9, 0.99, 0.999} {
				v, ok := m.MinVDDForCapacity(c, y, 0.30, 1.00)
				check(fmt.Sprintf("%+v capacity %v yield %v", g, c, y), v, ok, func(v float64) bool {
					return m.ExpectedCapacity(v) >= c && m.Yield(v) >= y
				})
			}
		}
	}
}

// TestMinVDDBisection checks the search alone against the scan, for
// threshold predicates at, between, below and above the grid's points,
// on random bounds in either order and on edge cases: a one-point
// grid, off-step bounds, no qualifying point and every point
// qualifying. It calls the predicate at most bits.Len(points) times
// and allocates nothing.
func TestMinVDDBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bounds := [][2]float64{{0.30, 1.00}, {1.00, 0.30}, {0.55, 0.55}, {0.305, 0.80}, {0.30, 0.305}, {0.20, 1.20}}
	for i := 0; i < 300; i++ {
		bounds = append(bounds, [2]float64{0.1 + 1.2*rng.Float64(), 0.1 + 1.2*rng.Float64()})
	}
	for _, b := range bounds {
		g := Grid(b[0], b[1])
		thresholds := append([]float64{g[0] - 1, g[len(g)-1] + 1, 0.1 + 1.2*rng.Float64()}, g...)
		for _, th := range thresholds {
			calls := 0
			meets := func(v float64) bool { calls++; return v >= th }
			got, ok := MinVDD(b[0], b[1], meets)
			if n := bits.Len(uint(len(g))); calls > n {
				t.Errorf("MinVDD(%v, %v) called the predicate %d times over %d points, want <= %d", b[0], b[1], calls, len(g), n)
			}
			want, wantOK := scanMinVDD(b[0], b[1], meets)
			if got != want || ok != wantOK {
				t.Fatalf("MinVDD(%v, %v) at threshold %v = (%v, %v), scan gives (%v, %v)", b[0], b[1], th, got, ok, want, wantOK)
			}
		}
	}
	th := 0.5
	if allocs := testing.AllocsPerRun(100, func() {
		MinVDD(0.30, 1.00, func(v float64) bool { return v >= th })
	}); allocs != 0 {
		t.Errorf("MinVDD allocated %v times per call", allocs)
	}
}

func TestMinVDDForCapacityRespectsBothConstraints(t *testing.T) {
	m := mustModel(t, l1AGeom())
	v, ok := m.MinVDDForCapacity(0.99, 0.99, 0.30, 1.00)
	if !ok {
		t.Fatal("not found")
	}
	if m.ExpectedCapacity(v) < 0.99 || m.Yield(v) < 0.99 {
		t.Errorf("constraints violated at %v", v)
	}
}

func TestVDDLevelsErrorsWhenImpossible(t *testing.T) {
	m := mustModel(t, l1AGeom())
	// A range that tops out far below any feasible voltage.
	if _, _, _, err := m.VDDLevels(0.35, 0.30, 0.99); err == nil {
		t.Error("infeasible range accepted")
	}
}
