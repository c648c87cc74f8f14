package stats

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestZipfDistribution(t *testing.T) {
	r := NewRNG(20)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Draw()]++
	}
	// Rank 0 must be the most popular; ratio to rank 9 approx 10:1 at s=1.
	if counts[0] <= counts[9] {
		t.Fatalf("zipf head not dominant: c0=%d c9=%d", counts[0], counts[9])
	}
	ratio := float64(counts[0]) / float64(counts[9]+1)
	if ratio < 5 || ratio > 20 {
		t.Errorf("zipf c0/c9 ratio %v, want ~10", ratio)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := NewRNG(21)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Draw()]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-draws/10) > 0.1*draws/10 {
			t.Errorf("s=0 bucket %d has %d draws", i, c)
		}
	}
}

func TestZipfBounds(t *testing.T) {
	r := NewRNG(22)
	z := NewZipf(r, 7, 1.2)
	if z.N() != 7 {
		t.Fatalf("N = %d", z.N())
	}
	for i := 0; i < 10000; i++ {
		if v := z.Draw(); v < 0 || v >= 7 {
			t.Fatalf("draw %d out of range", v)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	r := NewRNG(23)
	for _, f := range []func(){
		func() { NewZipf(r, 0, 1) },
		func() { NewZipf(r, 10, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Zipf did not panic")
				}
			}()
			f()
		}()
	}
}
