package ecc

import (
	"math"

	"repro/internal/faultmodel"
	"repro/internal/sram"
)

// Yield models for ECC-protected caches, used in the Fig. 3d comparison.
// A cache "yields" at a voltage if every subblock of every block remains
// correctable: <= 1 faulty cell per codeword for SECDED, <= 2 for DECTED.
// Check bits are stored in the same voltage-scaled array as the data, so
// they participate in the fault process (codeword width, not data width,
// enters the binomial).

// DECTED code geometry for 16 data bits: a shortened BCH(31,16) with
// t = 2 plus an extra detection parity — 10 check bits + 1, 27 total.
const (
	// DECTEDCodeBits is the DECTED codeword width for a 16-bit subblock.
	DECTEDCodeBits = 27
)

// tailAboveK returns P(X > k) for X ~ Binomial(n, ber): the
// probability that a codeword holds more faulty cells than its code
// corrects. It sums the tail itself rather than taking 1 - P(X <= k),
// which rounds to 0 or to one ulp once the tail falls below about
// 1e-16; raised to the number of codewords in a cache, that ulp made
// the yield fall as VDD rose. The first term, i = k+1, comes from
// lnChoose and each later one from the ratio of consecutive terms,
// (n-i)/(i+1) · ber/(1-ber). The ratio falls as i grows, so a term
// below half an ulp of the sum comes after the terms peak (a rising
// term is at least the sum over n), every later term is smaller
// still, and no addition left could change the sum: the loop stops.
func tailAboveK(ber float64, n, k int) float64 {
	if ber <= 0 || k >= n {
		return 0
	}
	if ber >= 1 {
		return 1
	}
	i := k + 1
	term := math.Exp(lnChoose(n, i) + float64(i)*math.Log(ber) + float64(n-i)*math.Log1p(-ber))
	odds := ber / (1 - ber)
	sum := 0.0
	for ; i <= n && term >= sum*0x1p-54; i++ {
		sum += term
		term *= float64(n-i) / float64(i+1) * odds
	}
	return sum
}

// lnChoose returns ln(n choose k).
func lnChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lg - lk - lnk
}

// YieldModel computes cache yield at a voltage for an ECC scheme applied
// at subblock granularity.
type YieldModel struct {
	// BER is the per-bit fault model.
	BER sram.BERModel
	// Geom is the cache geometry (data bits per block, sets, ways).
	Geom faultmodel.Geometry
	// SubblockDataBits is the protected payload width (16 in the paper).
	SubblockDataBits int
	// CodewordBits is the stored codeword width including check bits.
	CodewordBits int
	// CorrectableBits is how many faulty cells per codeword the scheme
	// tolerates (0 = no protection, 1 = SECDED, 2 = DECTED).
	CorrectableBits int
}

// NewConventional returns the yield model of a cache with no fault
// tolerance: any faulty cell anywhere kills the cache at that voltage.
func NewConventional(ber sram.BERModel, geom faultmodel.Geometry) YieldModel {
	return YieldModel{BER: ber, Geom: geom,
		SubblockDataBits: DataBits, CodewordBits: DataBits, CorrectableBits: 0}
}

// NewSECDED returns the yield model of a SECDED-per-subblock cache.
func NewSECDED(ber sram.BERModel, geom faultmodel.Geometry) YieldModel {
	return YieldModel{BER: ber, Geom: geom,
		SubblockDataBits: DataBits, CodewordBits: CodeBits, CorrectableBits: 1}
}

// NewDECTED returns the yield model of a DECTED-per-subblock cache.
func NewDECTED(ber sram.BERModel, geom faultmodel.Geometry) YieldModel {
	return YieldModel{BER: ber, Geom: geom,
		SubblockDataBits: DataBits, CodewordBits: DECTEDCodeBits, CorrectableBits: 2}
}

// SubblocksPerBlock returns the number of protected subblocks per block.
func (y YieldModel) SubblocksPerBlock() int {
	return y.Geom.BlockBits / y.SubblockDataBits
}

// Yield returns the probability that every subblock of every block in
// the cache remains correctable at the given voltage.
func (y YieldModel) Yield(vdd float64) float64 {
	tail := tailAboveK(y.BER.BER(vdd), y.CodewordBits, y.CorrectableBits)
	if tail >= 1 {
		return 0
	}
	n := float64(y.Geom.Blocks() * y.SubblocksPerBlock())
	return math.Exp(n * math.Log1p(-tail))
}

// MinVDD returns the lowest grid voltage in [lo, hi] with yield at least
// the target, or ok=false if none qualifies.
func (y YieldModel) MinVDD(target, lo, hi float64) (vdd float64, ok bool) {
	return faultmodel.MinVDD(lo, hi, func(v float64) bool { return y.Yield(v) >= target })
}

// StorageOverhead returns the fraction of extra bits the scheme stores
// relative to unprotected data (e.g. 6/16 for SECDED over 2-byte
// subblocks).
func (y YieldModel) StorageOverhead() float64 {
	return float64(y.CodewordBits-y.SubblockDataBits) / float64(y.SubblockDataBits)
}
