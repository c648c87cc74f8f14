// Package faultmap implements the paper's lightweight multi-VDD fault
// map. For N allowed data-array VDD levels, each block carries
// ceil(log2(N+1)) "FM" bits encoding the lowest VDD level at which the
// block is non-faulty, plus one "Faulty" bit reflecting whether the block
// is faulty at the *current* voltage. The FM encoding is only possible
// because of the fault inclusion property (a block faulty at some voltage
// is faulty at all lower voltages), which compresses what would otherwise
// be N separate fault maps into a single log-sized field — the key
// overhead advantage over schemes like FFT-Cache that need one full map
// per additional voltage.
//
// FM value semantics (matching Fig. 1a's comparison rule): FM = k means
// the block is faulty at VDD levels <= k and non-faulty at levels > k.
// FM = 0 means never faulty at any allowed level; FM = N means faulty
// even at the highest level (a manufacturing defect).
package faultmap

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Levels is an ordered set of allowed data-array supply voltages, from
// lowest (level 1) to highest (level N). Level indices are 1-based to
// match the paper's "VDD1 / VDD2 / VDD3" naming; level 0 is reserved to
// mean "below every allowed level" in FM comparisons.
type Levels struct {
	volts []float64
}

// NewLevels builds a Levels from the given voltages, which must be
// strictly increasing and positive.
func NewLevels(volts ...float64) (Levels, error) {
	if len(volts) == 0 {
		return Levels{}, errors.New("faultmap: at least one voltage level required")
	}
	for i, v := range volts {
		if v <= 0 {
			return Levels{}, fmt.Errorf("faultmap: voltage %v must be positive", v)
		}
		if i > 0 && volts[i] <= volts[i-1] {
			return Levels{}, fmt.Errorf("faultmap: voltages must be strictly increasing (%v after %v)",
				volts[i], volts[i-1])
		}
	}
	cp := append([]float64(nil), volts...)
	return Levels{volts: cp}, nil
}

// MustLevels is NewLevels that panics on error, for tests and literals.
func MustLevels(volts ...float64) Levels {
	l, err := NewLevels(volts...)
	if err != nil {
		panic(err)
	}
	return l
}

// N returns the number of allowed levels.
func (l Levels) N() int { return len(l.volts) }

// Volts returns the voltage of the 1-based level k.
func (l Levels) Volts(k int) float64 {
	if k < 1 || k > len(l.volts) {
		panic(fmt.Sprintf("faultmap: level %d out of 1..%d", k, len(l.volts)))
	}
	return l.volts[k-1]
}

// All returns a copy of all voltages, lowest first.
func (l Levels) All() []float64 { return append([]float64(nil), l.volts...) }

// LevelOf returns the 1-based level whose voltage equals v (within 1e-9),
// or 0 if v is not an allowed level.
func (l Levels) LevelOf(v float64) int {
	for i, lv := range l.volts {
		if math.Abs(lv-v) < 1e-9 {
			return i + 1
		}
	}
	return 0
}

// FMBits returns the number of fault-map bits per block needed to encode
// the N+1 possible FM values: ceil(log2(N+1)).
func (l Levels) FMBits() int {
	return bits.Len(uint(len(l.volts)))
}

// Map is the fault map for a cache data array: one FM entry per block.
// The Faulty bits live with the cache metadata (package cache), not here;
// Map holds only the static per-block minimum-level information that a
// BIST pass populates.
type Map struct {
	levels Levels
	// fm[b] = lowest level at which block b is *faulty*; the block is
	// non-faulty at all levels strictly above fm[b]. 0 = never faulty.
	fm []uint8
}

// NewMap creates an all-zero (fault-free) map for nblocks blocks.
func NewMap(levels Levels, nblocks int) *Map {
	if nblocks <= 0 {
		panic(fmt.Sprintf("faultmap: invalid block count %d", nblocks))
	}
	if levels.N() == 0 {
		panic("faultmap: empty levels")
	}
	if levels.N() > 254 {
		panic("faultmap: more than 254 levels not supported by uint8 FM storage")
	}
	return &Map{levels: levels, fm: make([]uint8, nblocks)}
}

// Reset reinitialises m to the state NewMap(levels, nblocks) would
// construct, reusing the FM storage when its capacity suffices. It is
// the arena-reuse counterpart of NewMap: a per-worker buffer can absorb
// one fresh fault map per campaign cell without reallocating. The same
// validation as NewMap applies.
func (m *Map) Reset(levels Levels, nblocks int) {
	if nblocks <= 0 {
		panic(fmt.Sprintf("faultmap: invalid block count %d", nblocks))
	}
	if levels.N() == 0 {
		panic("faultmap: empty levels")
	}
	if levels.N() > 254 {
		panic("faultmap: more than 254 levels not supported by uint8 FM storage")
	}
	m.levels = levels
	if cap(m.fm) >= nblocks {
		m.fm = m.fm[:nblocks]
		clear(m.fm)
	} else {
		m.fm = make([]uint8, nblocks)
	}
}

// SnapshotFM copies the map's FM values into dst (reusing its capacity)
// and returns the snapshot. Together with RestoreFM it lets an arena
// keep a pristine copy of an expensive Monte-Carlo population and
// replay it with a memcpy instead of redrawing.
func (m *Map) SnapshotFM(dst []uint8) []uint8 {
	return append(dst[:0], m.fm...)
}

// RestoreFM overwrites the map's FM values from a snapshot taken by
// SnapshotFM on an identically-sized map. It panics on a size mismatch:
// a snapshot only makes sense for the exact population it captured.
func (m *Map) RestoreFM(snap []uint8) {
	if len(snap) != len(m.fm) {
		panic(fmt.Sprintf("faultmap: snapshot of %d blocks restored into map of %d", len(snap), len(m.fm)))
	}
	copy(m.fm, snap)
}

// Levels returns the voltage levels the map encodes against.
func (m *Map) Levels() Levels { return m.levels }

// NumBlocks returns the number of blocks tracked.
func (m *Map) NumBlocks() int { return len(m.fm) }

// FM returns block b's FM value: the highest level at which it is faulty
// (0 if never faulty at any allowed level).
func (m *Map) FM(b int) int { return int(m.fm[b]) }

// SetFM records block b's FM value. It panics if v exceeds N (N means
// faulty even at the highest allowed level).
func (m *Map) SetFM(b, v int) {
	if v < 0 || v > m.levels.N() {
		panic(fmt.Sprintf("faultmap: FM value %d out of 0..%d", v, m.levels.N()))
	}
	m.fm[b] = uint8(v)
}

// SetFromVmin records block b's FM value from the block's physical
// minimum reliable voltage: the FM value is the highest allowed level
// whose voltage is below vmin (at such levels the block is faulty).
func (m *Map) SetFromVmin(b int, vmin float64) {
	fm := 0
	for k := 1; k <= m.levels.N(); k++ {
		if m.levels.Volts(k) < vmin {
			fm = k
		}
	}
	m.fm[b] = uint8(fm)
}

// FaultyAt reports whether block b is faulty when operating at the
// 1-based voltage level. This is the hardware comparison from the paper:
// "if the VDD code is less than or equal to the block's FM value, then
// the Faulty bit needs to be set".
func (m *Map) FaultyAt(b, level int) bool {
	if level < 1 || level > m.levels.N() {
		panic(fmt.Sprintf("faultmap: level %d out of 1..%d", level, m.levels.N()))
	}
	return level <= int(m.fm[b])
}

// FaultyCount returns the number of blocks faulty at the given level.
func (m *Map) FaultyCount(level int) int {
	n := 0
	for b := range m.fm {
		if m.FaultyAt(b, level) {
			n++
		}
	}
	return n
}

// EffectiveCapacity returns the proportion of non-faulty blocks at the
// given level.
func (m *Map) EffectiveCapacity(level int) float64 {
	return 1 - float64(m.FaultyCount(level))/float64(len(m.fm))
}

// CheckInclusion verifies the fault inclusion property as encoded:
// for every block, the set of faulty levels must be a downward-closed
// prefix {1..FM}. This holds by construction of the FM encoding; the
// check exists to validate maps populated from external BIST results.
// A BIST result that violates inclusion (observed faulty at level k but
// not at k-1) cannot be represented and is reported by the BIST layer.
func (m *Map) CheckInclusion() error {
	for b, v := range m.fm {
		if int(v) > m.levels.N() {
			return fmt.Errorf("faultmap: block %d FM %d exceeds level count %d", b, v, m.levels.N())
		}
	}
	return nil
}

// StorageBitsPerBlock returns the number of metadata bits the mechanism
// adds per block: the FM bits plus the single Faulty bit.
func (m *Map) StorageBitsPerBlock() int { return m.levels.FMBits() + 1 }
