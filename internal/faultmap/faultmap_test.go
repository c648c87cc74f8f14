package faultmap

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func threeLevels(t *testing.T) Levels {
	t.Helper()
	l, err := NewLevels(0.54, 0.70, 1.00)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewLevelsValidation(t *testing.T) {
	if _, err := NewLevels(); err == nil {
		t.Error("empty levels accepted")
	}
	if _, err := NewLevels(0.7, 0.5); err == nil {
		t.Error("decreasing levels accepted")
	}
	if _, err := NewLevels(0.5, 0.5); err == nil {
		t.Error("duplicate levels accepted")
	}
	if _, err := NewLevels(-0.1, 0.5); err == nil {
		t.Error("negative level accepted")
	}
}

func TestLevelsAccessors(t *testing.T) {
	l := threeLevels(t)
	if l.N() != 3 {
		t.Fatalf("N = %d", l.N())
	}
	if l.Volts(1) != 0.54 || l.Volts(3) != 1.00 {
		t.Error("Volts mismatch")
	}
	all := l.All()
	if len(all) != 3 || all[0] != 0.54 {
		t.Error("All mismatch")
	}
	all[0] = 99 // must not alias internal state
	if l.Volts(1) != 0.54 {
		t.Error("All leaked internal slice")
	}
}

func TestLevelOf(t *testing.T) {
	l := threeLevels(t)
	if l.LevelOf(0.70) != 2 {
		t.Errorf("LevelOf(0.70) = %d", l.LevelOf(0.70))
	}
	if l.LevelOf(0.65) != 0 {
		t.Errorf("LevelOf(0.65) = %d", l.LevelOf(0.65))
	}
}

// highestLevelAtOrBelow returns the highest 1-based level of l whose
// voltage is <= v, or 0 if every level is above v.
func highestLevelAtOrBelow(l Levels, v float64) int {
	i := sort.SearchFloat64s(l.volts, v+1e-12)
	return i
}

func TestHighestLevelAtOrBelow(t *testing.T) {
	l := threeLevels(t)
	cases := []struct {
		v    float64
		want int
	}{
		{0.50, 0}, {0.54, 1}, {0.60, 1}, {0.70, 2}, {0.99, 2}, {1.00, 3}, {1.20, 3},
	}
	for _, c := range cases {
		if got := highestLevelAtOrBelow(l, c.v); got != c.want {
			t.Errorf("HighestLevelAtOrBelow(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestFMBits(t *testing.T) {
	// log2(N+1) rounded up: N=3 -> 2 bits, N=1 -> 1 bit, N=7 -> 3 bits.
	cases := []struct {
		volts []float64
		want  int
	}{
		{[]float64{1.0}, 1},
		{[]float64{0.5, 1.0}, 2},
		{[]float64{0.5, 0.7, 1.0}, 2},
		{[]float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}, 3},
	}
	for _, c := range cases {
		l := MustLevels(c.volts...)
		if got := l.FMBits(); got != c.want {
			t.Errorf("FMBits(N=%d) = %d, want %d", len(c.volts), got, c.want)
		}
	}
}

func TestMapFaultyAtSemantics(t *testing.T) {
	l := threeLevels(t)
	m := NewMap(l, 4)
	m.SetFM(0, 0) // never faulty
	m.SetFM(1, 1) // faulty only at level 1
	m.SetFM(2, 2) // faulty at levels 1 and 2
	m.SetFM(3, 3) // faulty everywhere
	type want struct{ l1, l2, l3 bool }
	wants := []want{
		{false, false, false},
		{true, false, false},
		{true, true, false},
		{true, true, true},
	}
	for b, w := range wants {
		if m.FaultyAt(b, 1) != w.l1 || m.FaultyAt(b, 2) != w.l2 || m.FaultyAt(b, 3) != w.l3 {
			t.Errorf("block %d FM=%d: got (%v,%v,%v), want %+v",
				b, m.FM(b), m.FaultyAt(b, 1), m.FaultyAt(b, 2), m.FaultyAt(b, 3), w)
		}
	}
}

func TestFaultInclusionEncoded(t *testing.T) {
	// By construction of the FM encoding, faulty at level k implies
	// faulty at all levels below k — the compressed-map property.
	l := threeLevels(t)
	m := NewMap(l, 64)
	if err := quick.Check(func(b, fm uint8) bool {
		blk := int(b) % 64
		m.SetFM(blk, int(fm)%4)
		for k := 2; k <= 3; k++ {
			if m.FaultyAt(blk, k) && !m.FaultyAt(blk, k-1) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetFromVmin(t *testing.T) {
	l := threeLevels(t)
	m := NewMap(l, 5)
	cases := []struct {
		vmin float64
		want int
	}{
		{0.30, 0},        // reliable at every level
		{0.54, 0},        // exactly at level 1: not faulty there
		{0.60, 1},        // faulty at 0.54, fine at 0.70
		{0.80, 2},        // faulty at 0.54 and 0.70
		{math.Inf(1), 3}, // faulty everywhere
	}
	for i, c := range cases {
		m.SetFromVmin(i, c.vmin)
		if got := m.FM(i); got != c.want {
			t.Errorf("vmin %v -> FM %d, want %d", c.vmin, got, c.want)
		}
	}
}

func TestFaultyCountAndCapacity(t *testing.T) {
	l := threeLevels(t)
	m := NewMap(l, 10)
	m.SetFM(0, 1)
	m.SetFM(1, 2)
	m.SetFM(2, 3)
	if got := m.FaultyCount(1); got != 3 {
		t.Errorf("count@1 = %d", got)
	}
	if got := m.FaultyCount(2); got != 2 {
		t.Errorf("count@2 = %d", got)
	}
	if got := m.FaultyCount(3); got != 1 {
		t.Errorf("count@3 = %d", got)
	}
	if got := m.EffectiveCapacity(1); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("capacity@1 = %v", got)
	}
}

func TestMinUsableLevel(t *testing.T) {
	l := threeLevels(t)
	m := NewMap(l, 2)
	m.SetFM(0, 0)
	m.SetFM(1, 2)
	// A block is usable from level FM+1 up: fault-free at level 1 for
	// FM 0, and only at level 3 for FM 2.
	for b, want := range []int{1, 3} {
		if got := m.FM(b) + 1; got != want || m.FaultyAt(b, want) || (want > 1 && !m.FaultyAt(b, want-1)) {
			t.Errorf("block %d usable from level %d, want %d", b, got, want)
		}
	}
}

func TestStorageBitsPerBlock(t *testing.T) {
	m := NewMap(threeLevels(t), 4)
	// 2 FM bits + 1 Faulty bit for N=3 — the paper's "3, 3" in Table 2.
	if got := m.StorageBitsPerBlock(); got != 3 {
		t.Errorf("storage bits %d, want 3", got)
	}
}

func TestMapPanics(t *testing.T) {
	l := threeLevels(t)
	m := NewMap(l, 4)
	for _, f := range []func(){
		func() { m.SetFM(0, 4) },
		func() { m.SetFM(0, -1) },
		func() { m.FaultyAt(0, 0) },
		func() { m.FaultyAt(0, 4) },
		func() { NewMap(l, 0) },
		func() { l.Volts(0) },
		func() { l.Volts(4) },
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

func TestCheckInclusion(t *testing.T) {
	m := NewMap(threeLevels(t), 4)
	if err := m.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
}
