package sram

import (
	"fmt"

	"repro/internal/stats"
)

// Array is a functional model of a voltage-scaled SRAM data array:
// Rows x Cols bit cells, each with its own minimum operating voltage.
// Reads and writes behave correctly for cells whose Vmin is at or below
// the current supply; cells operated below their Vmin misbehave (see
// faultKind). The array is the device-under-test for the March SS BIST
// engine and the physical backing for fault-map population.
type Array struct {
	rows, cols int
	vdd        float64
	// vmin[r*cols+c] is the cell's minimum reliable operating voltage.
	vmin []float64
	// data holds the stored bits (packed 1 bit per cell for clarity,
	// one byte per cell; arrays here are small enough that clarity wins).
	data []uint8
	// faultKind[r*cols+c] describes how the cell misbehaves below Vmin.
	faultKind []FaultKind
}

// FaultKind describes the failure mode of a cell operated below its Vmin.
// March SS targets all static simple faults; we model the three dominant
// voltage-induced modes. All of them are detected by March SS.
type FaultKind uint8

const (
	// StuckAt0 reads as 0 regardless of what was written.
	StuckAt0 FaultKind = iota
	// StuckAt1 reads as 1 regardless of what was written.
	StuckAt1
	// WriteFail retains its previous value when written (transition
	// fault / write failure, the dominant low-voltage 6T failure mode).
	WriteFail
	// ReadFlip returns the stored value's complement on read
	// (destructive read disturb; the cell value is also flipped).
	ReadFlip
	numFaultKinds
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case StuckAt0:
		return "stuck-at-0"
	case StuckAt1:
		return "stuck-at-1"
	case WriteFail:
		return "write-fail"
	case ReadFlip:
		return "read-flip"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// NewArray builds an array of rows x cols cells whose Vmins are sampled
// from the BER model over the voltage range [vlo, vhi] using the given
// RNG. Failure modes are assigned uniformly at random per faulty-capable
// cell. The array starts at vhi (fully reliable) with all cells zero.
func NewArray(rng *stats.RNG, model BERModel, rows, cols int, vlo, vhi float64) *Array {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sram: invalid array dims %dx%d", rows, cols))
	}
	wc, ok := model.(*WangCalhounBER)
	if !ok {
		panic("sram: NewArray requires a *WangCalhounBER model for Vmin inversion")
	}
	n := rows * cols
	a := &Array{
		rows:      rows,
		cols:      cols,
		vdd:       vhi,
		vmin:      make([]float64, n),
		data:      make([]uint8, n),
		faultKind: make([]FaultKind, n),
	}
	for i := 0; i < n; i++ {
		a.vmin[i] = wc.VminFromUniform(rng.Float64(), vlo, vhi)
		a.faultKind[i] = FaultKind(rng.Intn(int(numFaultKinds)))
	}
	return a
}

// Rows returns the number of rows.
func (a *Array) Rows() int { return a.rows }

// Cols returns the number of columns (bits per row).
func (a *Array) Cols() int { return a.cols }

// VDD returns the current supply voltage.
func (a *Array) VDD() float64 { return a.vdd }

// SetVDD changes the supply voltage. Cell contents are retained only for
// cells whose Vmin is at or below the new voltage; cells that become
// unreliable have indeterminate content, modelled by corrupting them
// according to their failure mode.
func (a *Array) SetVDD(vdd float64) {
	a.vdd = vdd
	for i, vm := range a.vmin {
		if vdd < vm {
			switch a.faultKind[i] {
			case StuckAt0:
				a.data[i] = 0
			case StuckAt1:
				a.data[i] = 1
			}
			// WriteFail and ReadFlip cells retain data until accessed.
		}
	}
}

func (a *Array) index(row, col int) int {
	if row < 0 || row >= a.rows || col < 0 || col >= a.cols {
		panic(fmt.Sprintf("sram: cell (%d,%d) out of %dx%d array", row, col, a.rows, a.cols))
	}
	return row*a.cols + col
}

// faulty reports whether the cell is operating below its Vmin.
func (a *Array) faulty(i int) bool { return a.vdd < a.vmin[i] }

// ReadBit reads one cell at the current supply voltage, applying the
// cell's failure mode if it is operating below Vmin.
func (a *Array) ReadBit(row, col int) uint8 {
	i := a.index(row, col)
	if !a.faulty(i) {
		return a.data[i]
	}
	switch a.faultKind[i] {
	case StuckAt0:
		return 0
	case StuckAt1:
		return 1
	case ReadFlip:
		v := a.data[i] ^ 1
		a.data[i] = v // destructive read disturb
		return v
	default: // WriteFail: reads are fine
		return a.data[i]
	}
}

// WriteBit writes one cell at the current supply voltage, applying the
// cell's failure mode if it is operating below Vmin.
func (a *Array) WriteBit(row, col int, v uint8) {
	if v > 1 {
		panic("sram: WriteBit value must be 0 or 1")
	}
	i := a.index(row, col)
	if !a.faulty(i) {
		a.data[i] = v
		return
	}
	switch a.faultKind[i] {
	case StuckAt0:
		a.data[i] = 0
	case StuckAt1:
		a.data[i] = 1
	case WriteFail:
		// Retains the old value: the write fails silently.
	default: // ReadFlip: writes succeed
		a.data[i] = v
	}
}

// CellVmin returns the minimum reliable operating voltage of a cell.
// A cell that is faulty even at the top of the sampled range reports +Inf.
func (a *Array) CellVmin(row, col int) float64 { return a.vmin[a.index(row, col)] }

// CellFaultKind returns the failure mode the cell exhibits below Vmin.
func (a *Array) CellFaultKind(row, col int) FaultKind { return a.faultKind[a.index(row, col)] }

// RowVmin returns the minimum voltage at which every cell of the row is
// reliable, i.e. the max of the row's cell Vmins. This is the quantity
// the fault map quantises into FM bits.
func (a *Array) RowVmin(row int) float64 {
	m := 0.0
	for c := 0; c < a.cols; c++ {
		if vm := a.vmin[a.index(row, c)]; vm > m {
			m = vm
		}
	}
	return m
}

// FaultyCellCount returns how many cells are unreliable at voltage vdd.
func (a *Array) FaultyCellCount(vdd float64) int {
	n := 0
	for _, vm := range a.vmin {
		if vdd < vm {
			n++
		}
	}
	return n
}

// InjectFault forces a cell's Vmin and failure mode, for fault-injection
// tests. Passing vmin = +Inf makes the cell permanently faulty.
func (a *Array) InjectFault(row, col int, vmin float64, kind FaultKind) {
	if kind >= numFaultKinds {
		panic(fmt.Sprintf("sram: invalid fault kind %d", kind))
	}
	i := a.index(row, col)
	a.vmin[i] = vmin
	a.faultKind[i] = kind
}

// PerfectArray returns an array with no faults at any voltage >= vlo,
// useful as a control in tests.
func PerfectArray(rows, cols int, vlo float64) *Array {
	n := rows * cols
	a := &Array{
		rows:      rows,
		cols:      cols,
		vdd:       1.0,
		vmin:      make([]float64, n),
		data:      make([]uint8, n),
		faultKind: make([]FaultKind, n),
	}
	for i := range a.vmin {
		a.vmin[i] = vlo
	}
	return a
}
