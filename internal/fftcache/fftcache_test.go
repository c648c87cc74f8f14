package fftcache

import (
	"math"
	"testing"

	"repro/internal/cacti"
	"repro/internal/device"
	"repro/internal/faultmodel"
	"repro/internal/sram"
)

func setup(t *testing.T, nLowVDDs int) (*Model, *cacti.Model) {
	t.Helper()
	geom := faultmodel.Geometry{Sets: 256, Ways: 4, BlockBits: 512}
	ber := sram.NewWangCalhounBER()
	org := cacti.Org{Name: "L1-A", SizeBytes: 64 << 10, Assoc: 4, BlockBytes: 64, AddrBits: 40}
	cm, err := cacti.New(org, device.Tech45SOI(), cacti.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return New(geom, ber, DefaultParams(), nLowVDDs), cm
}

func TestEffectiveCapacityMonotone(t *testing.T) {
	m, _ := setup(t, 2)
	prev := 0.0
	for _, v := range faultmodel.Grid(0.30, 1.00) {
		c := m.EffectiveCapacity(v)
		if c < prev-1e-12 {
			t.Fatalf("capacity decreased with voltage at %v", v)
		}
		if c < 0 || c > 1 {
			t.Fatalf("capacity %v out of range", c)
		}
		prev = c
	}
}

func TestFFTKeepsMoreBlocksThanProposed(t *testing.T) {
	// Fig. 3b: FFT-Cache's usable-block curve dominates the proposed
	// mechanism's at every voltage.
	m, _ := setup(t, 2)
	fm, err := faultmodel.New(m.Geom, m.BER)
	if err != nil {
		t.Fatal(err)
	}
	// Below ~0.42 V FFT-Cache's remap structures saturate and its
	// capacity collapses; the paper's Fig. 3b covers the operating range
	// above that cliff.
	for _, v := range faultmodel.Grid(0.42, 1.00) {
		if m.EffectiveCapacity(v) < fm.ExpectedCapacity(v)-1e-9 {
			t.Errorf("FFT capacity %v below proposed %v at %v V",
				m.EffectiveCapacity(v), fm.ExpectedCapacity(v), v)
		}
	}
}

func TestFFTMinVDDBelowProposed(t *testing.T) {
	// Fig. 3d: FFT-Cache reaches a lower min-VDD at fixed yield.
	m, _ := setup(t, 2)
	fm, _ := faultmodel.New(m.Geom, m.BER)
	vFFT, ok1 := m.MinVDDForYield(0.99, 0.30, 1.00)
	vProp, ok2 := fm.MinVDDForYield(0.99, 0.30, 1.00)
	if !ok1 || !ok2 {
		t.Fatal("min VDD not found")
	}
	if vFFT >= vProp {
		t.Errorf("FFT min VDD %v not below proposed %v", vFFT, vProp)
	}
}

func TestYieldMonotone(t *testing.T) {
	m, _ := setup(t, 2)
	prev := 0.0
	for _, v := range faultmodel.Grid(0.30, 1.00) {
		y := m.Yield(v)
		if y < prev-1e-9 {
			t.Fatalf("yield decreased at %v V", v)
		}
		if y < 0 || y > 1 {
			t.Fatalf("yield %v out of range", y)
		}
		prev = y
	}
}

func TestStaticPowerIncludesOverheads(t *testing.T) {
	m2, cm := setup(t, 2)
	m1, _ := setup(t, 1)
	// More VDD levels = more fault maps = more power at every voltage.
	for _, v := range []float64{0.5, 0.7, 1.0} {
		if m2.StaticPower(cm, v) <= m1.StaticPower(cm, v) {
			t.Errorf("3-level FFT not costlier than 2-level at %v V", v)
		}
	}
}

func TestProposedBeatsFFTAtAllCapacities(t *testing.T) {
	// The paper's headline Fig. 3a claim: lower total static power at
	// every effective capacity. Verify pointwise: for each FFT operating
	// point, the proposed mechanism achieves the same capacity at some
	// voltage with less power.
	fft, cm := setup(t, 2)
	fm, _ := faultmodel.New(fft.Geom, fft.BER)
	cmPCS := cm.WithPCS(2)
	propPower := func(targetCap float64) (float64, bool) {
		best := -1.0
		for _, v := range faultmodel.Grid(0.30, 1.00) {
			c := fm.ExpectedCapacity(v)
			if c >= targetCap {
				p := cmPCS.StaticPower(v, c).TotalW
				if best < 0 || p < best {
					best = p
				}
			}
		}
		return best, best >= 0
	}
	for _, v := range faultmodel.Grid(0.45, 1.00) {
		capF := fft.EffectiveCapacity(v)
		pF := fft.StaticPower(cm, v)
		pP, ok := propPower(capF)
		if !ok {
			continue
		}
		if pP >= pF {
			t.Errorf("at FFT capacity %.4f (V=%.2f): proposed %v W >= FFT %v W",
				capF, v, pP, pF)
		}
	}
}

// sacrificedFraction returns the expected fraction of blocks lost as
// remap targets at vdd, capped at the mechanism's saturation point
// (see EffectiveCapacity).
func sacrificedFraction(m *Model, vdd float64) float64 {
	q := m.pBlockFaulty(vdd)
	return math.Min(q/(2-q), m.Params.MaxSacrificeFraction)
}

// TestSacrificedFractionBounded checks the sacrificed fraction stays
// within [0, MaxSacrificeFraction] and is exactly what EffectiveCapacity
// takes away below saturation.
func TestSacrificedFractionBounded(t *testing.T) {
	m, _ := setup(t, 2)
	for _, v := range faultmodel.Grid(0.30, 1.00) {
		s := sacrificedFraction(m, v)
		if s < 0 || s > m.Params.MaxSacrificeFraction+1e-12 {
			t.Fatalf("sacrifice fraction %v out of bounds at %v V", s, v)
		}
		if s < m.Params.MaxSacrificeFraction {
			if c := m.EffectiveCapacity(v); c != 1-s {
				t.Errorf("capacity %v at %v V, want 1 - sacrificed %v", c, v, s)
			}
		}
	}
}

func TestNewClampsLowVDDs(t *testing.T) {
	m := New(faultmodel.Geometry{Sets: 4, Ways: 4, BlockBits: 512},
		sram.NewWangCalhounBER(), DefaultParams(), 0)
	if m.ExtraVDDLevels != 0 {
		t.Errorf("extra levels %d", m.ExtraVDDLevels)
	}
}

func TestPowerCapacityCurveShape(t *testing.T) {
	m, cm := setup(t, 2)
	caps, watts := m.PowerCapacityCurve(cm, 0.30, 1.00)
	if len(caps) != len(watts) || len(caps) != 71 {
		t.Fatalf("curve lengths %d/%d", len(caps), len(watts))
	}
	for i, w := range watts {
		if w <= 0 {
			t.Fatalf("non-positive power at %d", i)
		}
	}
}
