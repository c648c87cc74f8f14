package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: %d != %d", i, x, y)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := NewRNG(7)
	c := a.Split()
	// The child stream must not equal the parent's continuation.
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream matches parent %d/100 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	r := NewRNG(6)
	for _, n := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestUint64nUniformity(t *testing.T) {
	r := NewRNG(8)
	const n = 10
	counts := make([]int, n)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := draws / n
	for k, c := range counts {
		if math.Abs(float64(c-want)) > 0.1*float64(want) {
			t.Errorf("bucket %d has %d draws, want ~%d", k, c, want)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(9)
	for _, p := range []float64{0, 0.25, 0.5, 0.9, 1} {
		hits := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if r.Bool(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bool(%v) frequency %v", p, got)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(12)
	const p = 0.2
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		g := r.Geometric(p)
		if g < 0 {
			t.Fatalf("negative geometric draw %d", g)
		}
		sum += float64(g)
	}
	mean := sum / n
	want := (1 - p) / p
	if math.Abs(mean-want) > 0.1 {
		t.Errorf("geometric mean %v, want ~%v", mean, want)
	}
}

func TestGeometricPOne(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 100; i++ {
		if g := r.Geometric(1); g != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", g)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	r := NewRNG(14)
	const n = 100
	const p = 0.3
	const draws = 50000
	sum := 0.0
	for i := 0; i < draws; i++ {
		b := r.Binomial(n, p)
		if b < 0 || b > n {
			t.Fatalf("binomial draw %d out of [0,%d]", b, n)
		}
		sum += float64(b)
	}
	mean := sum / draws
	if math.Abs(mean-n*p) > 0.3 {
		t.Errorf("binomial mean %v, want ~%v", mean, n*p)
	}
}

func TestBinomialEdges(t *testing.T) {
	r := NewRNG(15)
	if got := r.Binomial(10, 0); got != 0 {
		t.Errorf("Binomial(10,0) = %d", got)
	}
	if got := r.Binomial(10, 1); got != 10 {
		t.Errorf("Binomial(10,1) = %d", got)
	}
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0,0.5) = %d", got)
	}
}

func TestBinomialHighP(t *testing.T) {
	r := NewRNG(16)
	const draws = 50000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += float64(r.Binomial(50, 0.9))
	}
	mean := sum / draws
	if math.Abs(mean-45) > 0.2 {
		t.Errorf("Binomial(50,0.9) mean %v, want ~45", mean)
	}
}
