package sram

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestBERMonotoneNonIncreasing(t *testing.T) {
	m := NewWangCalhounBER()
	prev := math.Inf(1)
	for v := 0.20; v <= 1.20; v += 0.005 {
		b := m.BER(v)
		if b > prev+1e-18 {
			t.Fatalf("BER increased with voltage at %v V: %v > %v", v, b, prev)
		}
		prev = b
	}
}

func TestBERAnchors(t *testing.T) {
	m := NewWangCalhounBER()
	cases := []struct{ v, want float64 }{
		{1.00, 1e-9},
		{0.70, math.Pow(10, -4.7)},
		{0.54, math.Pow(10, -3.8)},
		{0.30, math.Pow(10, -1.8)},
	}
	for _, c := range cases {
		got := m.BER(c.v)
		if math.Abs(math.Log10(got)-math.Log10(c.want)) > 1e-9 {
			t.Errorf("BER(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestBERInterpolatesLogLinear(t *testing.T) {
	m := NewWangCalhounBER()
	// Midpoint of the (0.90,-7.5)..(1.00,-9.0) segment.
	got := math.Log10(m.BER(0.95))
	if math.Abs(got-(-8.25)) > 1e-9 {
		t.Errorf("log10 BER(0.95) = %v, want -8.25", got)
	}
}

func TestBERClamps(t *testing.T) {
	m := NewWangCalhounBER()
	if got := m.BER(2.0); got != 1e-12 {
		t.Errorf("high-voltage clamp %v, want 1e-12", got)
	}
	if got := m.BER(0.0); got != 0.3 {
		t.Errorf("low-voltage clamp %v, want 0.3", got)
	}
}

func TestBERMagnitudesMatchFig2(t *testing.T) {
	// The paper's Fig. 2 spans roughly 1e-9..1e-3 over the studied range.
	m := NewWangCalhounBER()
	if b := m.BER(1.0); b > 1e-8 {
		t.Errorf("nominal BER %v too high", b)
	}
	if b := m.BER(0.45); b < 1e-4 || b > 1e-2 {
		t.Errorf("low-voltage BER %v outside Fig. 2 range", b)
	}
}

// newCustomBER builds a BER model from caller-provided (vdd, ber) points.
// Points are sorted by voltage; BER values must be strictly positive and
// non-increasing in voltage.
func newCustomBER(points map[float64]float64) (*WangCalhounBER, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("sram: custom BER model needs at least 2 points, got %d", len(points))
	}
	m := &WangCalhounBER{floor: 1e-12, ceil: 0.3}
	for v, p := range points {
		if p <= 0 || p >= 1 {
			return nil, fmt.Errorf("sram: BER %v at %v V out of (0,1)", p, v)
		}
		m.anchors = append(m.anchors, anchor{vdd: v, logP: math.Log10(p)})
	}
	sort.Slice(m.anchors, func(i, j int) bool { return m.anchors[i].vdd < m.anchors[j].vdd })
	for i := 1; i < len(m.anchors); i++ {
		if m.anchors[i].logP > m.anchors[i-1].logP {
			return nil, fmt.Errorf("sram: BER must be non-increasing in VDD (violated between %v V and %v V)",
				m.anchors[i-1].vdd, m.anchors[i].vdd)
		}
		if m.anchors[i].vdd == m.anchors[i-1].vdd {
			return nil, fmt.Errorf("sram: duplicate BER anchor at %v V", m.anchors[i].vdd)
		}
	}
	return m, nil
}

func TestCustomBERValidation(t *testing.T) {
	if _, err := newCustomBER(map[float64]float64{0.5: 1e-3}); err == nil {
		t.Error("single-point model accepted")
	}
	if _, err := newCustomBER(map[float64]float64{0.5: 1e-3, 0.8: 1e-2}); err == nil {
		t.Error("increasing BER accepted")
	}
	if _, err := newCustomBER(map[float64]float64{0.5: 2, 0.8: 1e-5}); err == nil {
		t.Error("BER >= 1 accepted")
	}
	m, err := newCustomBER(map[float64]float64{0.5: 1e-3, 0.8: 1e-6, 1.0: 1e-9})
	if err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	if got := m.BER(0.8); math.Abs(math.Log10(got)+6) > 1e-9 {
		t.Errorf("custom BER(0.8) = %v", got)
	}
}

func TestVminInversionConsistency(t *testing.T) {
	// For any quantile u, the returned Vmin must satisfy BER(Vmin) <= u
	// and BER just below Vmin > u (when in range).
	m := NewWangCalhounBER()
	if err := quick.Check(func(raw uint32) bool {
		u := math.Pow(10, -9*float64(raw%1000)/999) // spread over 1..1e-9
		v := m.VminFromUniform(u, 0.30, 1.00)
		if math.IsInf(v, 1) {
			return m.BER(1.00) > u
		}
		if v <= 0.30 {
			return m.BER(0.30) <= u
		}
		return m.BER(v) <= u && m.BER(v-1e-6) >= u*(1-1e-9)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVminPopulationMatchesBER(t *testing.T) {
	// Sampling many cells' Vmin and thresholding at voltage v must give a
	// fault fraction close to BER(v).
	m := NewWangCalhounBER()
	const n = 2_000_000
	rng := newTestRNG(99)
	faultyAt := func(v float64) int {
		c := 0
		rr := newTestRNG(99)
		for i := 0; i < n; i++ {
			if m.VminFromUniform(rr.Float64(), 0.30, 1.00) > v {
				c++
			}
		}
		return c
	}
	_ = rng
	v := 0.45
	want := m.BER(v)
	got := float64(faultyAt(v)) / n
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("population fault rate at %v V = %v, BER = %v", v, got, want)
	}
}
