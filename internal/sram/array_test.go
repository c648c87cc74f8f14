package sram

import (
	"testing"

	"repro/internal/stats"
)

// newTestRNG gives array tests a deterministic source.
func newTestRNG(seed uint64) *stats.RNG { return stats.NewRNG(seed) }

func TestPerfectArrayStoresData(t *testing.T) {
	a := PerfectArray(8, 16, 0.3)
	a.SetVDD(0.5)
	for r := 0; r < 8; r++ {
		for c := 0; c < 16; c++ {
			v := uint8((r + c) % 2)
			a.WriteBit(r, c, v)
		}
	}
	for r := 0; r < 8; r++ {
		for c := 0; c < 16; c++ {
			want := uint8((r + c) % 2)
			if got := a.ReadBit(r, c); got != want {
				t.Fatalf("cell (%d,%d) = %d, want %d", r, c, got, want)
			}
		}
	}
	if n := a.FaultyCellCount(0.3); n != 0 {
		t.Errorf("perfect array reports %d faulty cells", n)
	}
}

func TestArrayDimsAndAccessors(t *testing.T) {
	a := PerfectArray(4, 8, 0.3)
	if a.Rows() != 4 || a.Cols() != 8 {
		t.Fatalf("dims %dx%d", a.Rows(), a.Cols())
	}
	a.SetVDD(0.77)
	if a.VDD() != 0.77 {
		t.Fatalf("VDD = %v", a.VDD())
	}
}

func TestStuckAt0(t *testing.T) {
	a := PerfectArray(2, 2, 0.3)
	a.InjectFault(0, 0, 0.8, StuckAt0)
	a.SetVDD(1.0) // above Vmin: healthy
	a.WriteBit(0, 0, 1)
	if got := a.ReadBit(0, 0); got != 1 {
		t.Fatalf("healthy cell read %d", got)
	}
	a.SetVDD(0.7) // below Vmin: stuck at 0
	a.WriteBit(0, 0, 1)
	if got := a.ReadBit(0, 0); got != 0 {
		t.Fatalf("stuck-at-0 cell read %d", got)
	}
}

func TestStuckAt1(t *testing.T) {
	a := PerfectArray(2, 2, 0.3)
	a.InjectFault(1, 1, 0.8, StuckAt1)
	a.SetVDD(0.7)
	a.WriteBit(1, 1, 0)
	if got := a.ReadBit(1, 1); got != 1 {
		t.Fatalf("stuck-at-1 cell read %d", got)
	}
}

func TestWriteFailRetainsOldValue(t *testing.T) {
	a := PerfectArray(2, 2, 0.3)
	a.SetVDD(1.0)
	a.WriteBit(0, 1, 1) // healthy write
	a.InjectFault(0, 1, 0.9, WriteFail)
	a.SetVDD(0.7)
	a.WriteBit(0, 1, 0) // fails silently
	if got := a.ReadBit(0, 1); got != 1 {
		t.Fatalf("write-fail cell lost retained value: %d", got)
	}
}

func TestReadFlipDisturbsCell(t *testing.T) {
	a := PerfectArray(2, 2, 0.3)
	a.SetVDD(1.0)
	a.WriteBit(0, 0, 0)
	a.InjectFault(0, 0, 0.9, ReadFlip)
	a.SetVDD(0.7)
	if got := a.ReadBit(0, 0); got != 1 {
		t.Fatalf("read-flip first read %d, want 1", got)
	}
	// The destructive read left the flipped value; reading again flips back.
	if got := a.ReadBit(0, 0); got != 0 {
		t.Fatalf("read-flip second read %d, want 0", got)
	}
}

func TestFaultInclusionByConstruction(t *testing.T) {
	// Every cell has a single Vmin: faulty at v implies faulty at all
	// lower voltages. Verify over a sampled array.
	rng := newTestRNG(7)
	a := NewArray(rng, NewWangCalhounBER(), 32, 64, 0.30, 1.00)
	voltages := []float64{1.0, 0.8, 0.6, 0.5, 0.4, 0.3}
	prevFaulty := make(map[int]bool)
	for _, v := range voltages {
		cur := make(map[int]bool)
		for r := 0; r < a.Rows(); r++ {
			for c := 0; c < a.Cols(); c++ {
				if a.CellVmin(r, c) > v {
					cur[r*a.Cols()+c] = true
				}
			}
		}
		for cell := range prevFaulty {
			if !cur[cell] {
				t.Fatalf("cell %d faulty at higher V but healthy at %v V", cell, v)
			}
		}
		prevFaulty = cur
	}
}

func TestRowVminIsMaxOfCells(t *testing.T) {
	a := PerfectArray(2, 4, 0.3)
	a.InjectFault(0, 1, 0.55, StuckAt0)
	a.InjectFault(0, 3, 0.72, WriteFail)
	if got := a.RowVmin(0); got != 0.72 {
		t.Fatalf("row Vmin %v, want 0.72", got)
	}
	if got := a.RowVmin(1); got != 0.3 {
		t.Fatalf("clean row Vmin %v, want 0.3", got)
	}
}

// faultyRowCount returns how many rows of a contain at least one
// unreliable cell at voltage vdd.
func faultyRowCount(a *Array, vdd float64) int {
	n := 0
	for r := 0; r < a.rows; r++ {
		if vdd < a.RowVmin(r) {
			n++
		}
	}
	return n
}

func TestFaultyCounts(t *testing.T) {
	a := PerfectArray(4, 4, 0.3)
	a.InjectFault(0, 0, 0.9, StuckAt0)
	a.InjectFault(0, 1, 0.8, StuckAt1)
	a.InjectFault(2, 3, 0.7, WriteFail)
	if got := a.FaultyCellCount(0.85); got != 1 {
		t.Errorf("faulty cells at 0.85 = %d, want 1", got)
	}
	if got := a.FaultyCellCount(0.6); got != 3 {
		t.Errorf("faulty cells at 0.6 = %d, want 3", got)
	}
	if got := faultyRowCount(a, 0.6); got != 2 {
		t.Errorf("faulty rows at 0.6 = %d, want 2", got)
	}
}

func TestFaultRateMatchesBERModel(t *testing.T) {
	rng := newTestRNG(11)
	model := NewWangCalhounBER()
	a := NewArray(rng, model, 256, 512, 0.30, 1.00) // 131072 cells
	v := 0.45
	want := model.BER(v)
	got := float64(a.FaultyCellCount(v)) / float64(256*512)
	if got < want*0.7 || got > want*1.3 {
		t.Errorf("array fault rate %v at %v V, model %v", got, v, want)
	}
}

func TestSetVDDCorruptsStuckCells(t *testing.T) {
	a := PerfectArray(1, 2, 0.3)
	a.SetVDD(1.0)
	a.WriteBit(0, 0, 1)
	a.WriteBit(0, 1, 0)
	a.InjectFault(0, 0, 0.9, StuckAt0)
	a.InjectFault(0, 1, 0.9, StuckAt1)
	a.SetVDD(0.5)
	// Even without an access, stored state reflects the stuck values.
	a.SetVDD(1.0) // back up: content was lost while below Vmin
	if got := a.ReadBit(0, 0); got != 0 {
		t.Errorf("stuck-at-0 content after round trip: %d", got)
	}
	if got := a.ReadBit(0, 1); got != 1 {
		t.Errorf("stuck-at-1 content after round trip: %d", got)
	}
}

func TestArrayPanics(t *testing.T) {
	a := PerfectArray(2, 2, 0.3)
	for _, f := range []func(){
		func() { a.ReadBit(2, 0) },
		func() { a.ReadBit(0, 2) },
		func() { a.ReadBit(-1, 0) },
		func() { a.WriteBit(0, 0, 2) },
		func() { a.InjectFault(0, 0, 0.5, FaultKind(99)) },
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

func TestFaultKindString(t *testing.T) {
	names := map[FaultKind]string{
		StuckAt0: "stuck-at-0", StuckAt1: "stuck-at-1",
		WriteFail: "write-fail", ReadFlip: "read-flip",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestNewArrayDeterministic(t *testing.T) {
	m := NewWangCalhounBER()
	a := NewArray(newTestRNG(5), m, 16, 16, 0.30, 1.00)
	b := NewArray(newTestRNG(5), m, 16, 16, 0.30, 1.00)
	for r := 0; r < 16; r++ {
		for c := 0; c < 16; c++ {
			if a.CellVmin(r, c) != b.CellVmin(r, c) || a.CellFaultKind(r, c) != b.CellFaultKind(r, c) {
				t.Fatalf("same-seed arrays differ at (%d,%d)", r, c)
			}
		}
	}
}
