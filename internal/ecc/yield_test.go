package ecc

import (
	"math"
	"testing"

	"repro/internal/faultmodel"
	"repro/internal/sram"
)

func testGeom() faultmodel.Geometry {
	return faultmodel.Geometry{Sets: 256, Ways: 4, BlockBits: 512}
}

func models(t *testing.T) (conv, sec, dec YieldModel) {
	t.Helper()
	ber := sram.NewWangCalhounBER()
	g := testGeom()
	return NewConventional(ber, g), NewSECDED(ber, g), NewDECTED(ber, g)
}

func TestYieldOrdering(t *testing.T) {
	// At every voltage: conventional <= SECDED <= DECTED, the Fig. 3d
	// stacking.
	conv, sec, dec := models(t)
	for _, v := range faultmodel.Grid(0.30, 1.00) {
		yc, ys, yd := conv.Yield(v), sec.Yield(v), dec.Yield(v)
		if yc > ys+1e-12 || ys > yd+1e-12 {
			t.Fatalf("yield ordering violated at %v V: conv=%v sec=%v dec=%v", v, yc, ys, yd)
		}
	}
}

// TestYieldMonotoneInVoltage checks, with no tolerance, that no ECC
// yield falls as VDD rises, on the L1-A geometry and on one with about
// 4.2 M codewords (the L2-B size), where a one-ulp rounding of a
// codeword's survival probability used to drop DECTED's yield from 1
// to 0.9999999995 between 0.95 and 0.96 V.
func TestYieldMonotoneInVoltage(t *testing.T) {
	ber := sram.NewWangCalhounBER()
	for _, g := range []faultmodel.Geometry{testGeom(), {Sets: 8192, Ways: 16, BlockBits: 512}} {
		for _, m := range []YieldModel{NewConventional(ber, g), NewSECDED(ber, g), NewDECTED(ber, g)} {
			prev := 0.0
			for _, v := range faultmodel.Grid(0.20, 1.20) {
				y := m.Yield(v)
				if y < prev {
					t.Fatalf("%d-bit code, %d correctable, %d sets: yield fell from %v to %v at %.2f V",
						m.CodewordBits, m.CorrectableBits, g.Sets, prev, y, v)
				}
				prev = y
			}
			// DECTED's 100 %-yield min-VDD needs its yield to reach 1.
			if m.CorrectableBits == 2 && prev != 1 {
				t.Errorf("DECTED, %d sets: yield %v at 1.20 V, want 1", g.Sets, prev)
			}
		}
	}
}

func TestYieldBounds(t *testing.T) {
	conv, sec, dec := models(t)
	for _, m := range []YieldModel{conv, sec, dec} {
		for _, v := range []float64{0.3, 0.5, 0.7, 1.0} {
			if y := m.Yield(v); y < 0 || y > 1 {
				t.Fatalf("yield %v out of range at %v V", y, v)
			}
		}
	}
}

func TestMinVDDOrderingMatchesFig3d(t *testing.T) {
	// Fig. 3d: conventional needs the highest voltage; SECDED improves on
	// it; DECTED improves further.
	conv, sec, dec := models(t)
	vc, ok1 := conv.MinVDD(0.99, 0.30, 1.00)
	vs, ok2 := sec.MinVDD(0.99, 0.30, 1.00)
	vd, ok3 := dec.MinVDD(0.99, 0.30, 1.00)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("min VDD not found")
	}
	if !(vd <= vs && vs <= vc) {
		t.Fatalf("min VDD ordering: conv=%v sec=%v dec=%v", vc, vs, vd)
	}
	if vc-vs < 0.05 {
		t.Errorf("SECDED gains only %v V over conventional", vc-vs)
	}
}

func TestProposedBeatsSECDED(t *testing.T) {
	// The paper: "it did better than SECDED in all cache configurations";
	// DECTED can be slightly better at low associativity.
	ber := sram.NewWangCalhounBER()
	for _, g := range []faultmodel.Geometry{
		{Sets: 256, Ways: 4, BlockBits: 512},
		{Sets: 4096, Ways: 8, BlockBits: 512},
		{Sets: 512, Ways: 8, BlockBits: 512},
		{Sets: 8192, Ways: 16, BlockBits: 512},
	} {
		fm, err := faultmodel.New(g, ber)
		if err != nil {
			t.Fatal(err)
		}
		vProp, ok1 := fm.MinVDDForYield(0.99, 0.30, 1.00)
		vSec, ok2 := NewSECDED(ber, g).MinVDD(0.99, 0.30, 1.00)
		if !ok1 || !ok2 {
			t.Fatal("min VDD not found")
		}
		if vProp > vSec {
			t.Errorf("geometry %+v: proposed min VDD %v above SECDED %v", g, vProp, vSec)
		}
	}
}

func TestDECTEDBeatsProposedAtLowAssociativity(t *testing.T) {
	// Fig. 3d note: "DECTED achieved slightly better min-VDD than the
	// proposed mechanism due to low associativity".
	ber := sram.NewWangCalhounBER()
	g := faultmodel.Geometry{Sets: 256, Ways: 4, BlockBits: 512}
	fm, _ := faultmodel.New(g, ber)
	vProp, _ := fm.MinVDDForYield(0.99, 0.30, 1.00)
	vDec, _ := NewDECTED(ber, g).MinVDD(0.99, 0.30, 1.00)
	if vDec > vProp {
		t.Errorf("DECTED %v not better than proposed %v at 4-way", vDec, vProp)
	}
}

// TestCodewordTail checks the per-codeword failure probability the
// yield is built from: negligible at nominal VDD, rising as VDD falls,
// and the cache yield is its survival probability raised to the number
// of codewords.
func TestCodewordTail(t *testing.T) {
	_, sec, _ := models(t)
	tail := func(v float64) float64 { return tailAboveK(sec.BER.BER(v), sec.CodewordBits, sec.CorrectableBits) }
	if p := tail(1.0); p > 1e-6 {
		t.Errorf("nominal codeword failure prob %v", p)
	}
	if tail(0.4) <= tail(0.7) {
		t.Error("codeword failure prob not rising as VDD falls")
	}
	n := float64(sec.Geom.Blocks() * sec.SubblocksPerBlock())
	for _, v := range []float64{0.4, 0.5, 0.7} {
		want := math.Pow(1-tail(v), n)
		if got := sec.Yield(v); math.Abs(got-want) > 1e-9*math.Max(want, 1e-300) {
			t.Errorf("Yield(%.2f) = %v, want (1-tail)^n = %v", v, got, want)
		}
	}
}

func TestSubblocksPerBlock(t *testing.T) {
	_, sec, _ := models(t)
	if got := sec.SubblocksPerBlock(); got != 32 {
		t.Errorf("subblocks per 64B block = %d, want 32", got)
	}
}

func TestStorageOverhead(t *testing.T) {
	conv, sec, dec := models(t)
	if got := conv.StorageOverhead(); got != 0 {
		t.Errorf("conventional overhead %v", got)
	}
	if got := sec.StorageOverhead(); math.Abs(got-6.0/16) > 1e-12 {
		t.Errorf("SECDED overhead %v, want 0.375", got)
	}
	if got := dec.StorageOverhead(); math.Abs(got-11.0/16) > 1e-12 {
		t.Errorf("DECTED overhead %v", got)
	}
}

// binomialTail is the reference for tailAboveK: every term of the
// tail from its own lnChoose, summed in full.
func binomialTail(ber float64, n, k int) float64 {
	sum := 0.0
	for i := k + 1; i <= n; i++ {
		sum += math.Exp(lnChoose(n, i) + float64(i)*math.Log(ber) + float64(n-i)*math.Log1p(-ber))
	}
	return sum
}

func TestTailAboveKEdges(t *testing.T) {
	if got := tailAboveK(0, 22, 1); got != 0 {
		t.Errorf("zero BER: %v", got)
	}
	if got := tailAboveK(1, 22, 1); got != 1 {
		t.Errorf("certain faults, k<n: %v", got)
	}
	if got := tailAboveK(1, 22, 22); got != 0 {
		t.Errorf("certain faults, k=n: %v", got)
	}
	// Against 1 - P(X <= 1) summed directly for moderate parameters.
	ber := 0.01
	direct := math.Pow(1-ber, 22) + 22*ber*math.Pow(1-ber, 21)
	if got := tailAboveK(ber, 22, 1); math.Abs(got-(1-direct)) > 1e-12 {
		t.Errorf("tailAboveK = %v, want %v", got, 1-direct)
	}
	// Against the full per-term sum, over the BERs the models produce
	// and beyond, for every code the yield models build. Each side
	// takes exp of a log sum of magnitude up to about 60, so each
	// carries tens of ulps (the largest gap seen is 1.0e-14, for the
	// 27-bit code at a BER of 0.18); a wrong recurrence factor or an
	// early stop that drops a term shows far beyond 1e-13.
	for _, c := range []struct{ n, k int }{{16, 0}, {22, 1}, {27, 2}} {
		prev := 0.0
		for e := -14.0; e <= -0.5; e += 0.25 {
			ber := math.Pow(10, e)
			got, want := tailAboveK(ber, c.n, c.k), binomialTail(ber, c.n, c.k)
			if math.Abs(got-want) > 1e-13*want {
				t.Errorf("tailAboveK(%g, %d, %d) = %v, want %v", ber, c.n, c.k, got, want)
			}
			if got <= prev {
				t.Errorf("tailAboveK(%g, %d, %d) = %v, not above %v at a lower BER", ber, c.n, c.k, got, prev)
			}
			prev = got
		}
	}
}
