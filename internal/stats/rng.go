// Package stats provides deterministic pseudo-random number generation,
// sampling from the distributions the simulator draws from, and a mean.
//
// Every stochastic component of the simulator (SRAM cell Vmin draws,
// synthetic workload generators, fault placement) draws from an explicitly
// seeded RNG from this package so that experiments are reproducible
// bit-for-bit across runs and platforms.
//
// # Concurrency contract
//
// An RNG carries mutable stream state and is NOT safe for concurrent
// use. The package holds no global RNG and no other shared mutable
// state, so the rule is purely per-instance: construct one RNG per
// goroutine (or per job), either with NewRNG and a distinct seed, with
// Split on a goroutine-local parent, or with Derive to map a campaign
// seed plus a job index onto an independent child seed. Two goroutines
// must never share an *RNG without external locking.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256** seeded via SplitMix64. It is not safe for concurrent use;
// give each goroutine its own RNG (see Split).
//
// The four state words are scalar fields rather than an array so that
// Uint64 fits the compiler's inlining budget: the simulator's trace
// generators draw from it a few times per simulated instruction, and the
// call overhead is measurable on the block-simulation hot path.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from the given 64-bit seed.
// Two RNGs constructed with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets r in place to the state NewRNG(seed) would construct.
// Arena-style reuse calls it so a long-lived RNG value reproduces a
// freshly constructed generator draw for draw without allocating:
// after r.Reseed(s), r's stream is identical to NewRNG(s)'s, and
// r.Reseed(parent.Uint64()) reproduces parent.Split() exactly.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	r.s0 = splitMix64(&sm)
	r.s1 = splitMix64(&sm)
	r.s2 = splitMix64(&sm)
	r.s3 = splitMix64(&sm)
	// Avoid the (astronomically unlikely) all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 uniformly distributed bits. It is written
// to stay within the inlining budget (see the RNG type comment).
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Split derives a new, statistically independent RNG from r.
// The parent stream advances by one draw.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Derive maps a (seed, stream) pair onto a child seed, so that a fixed
// campaign seed plus a job index yields the same per-job RNG regardless
// of the order or parallelism in which jobs execute. Unlike Split it
// consumes no parent stream state: it is a pure function, safe to call
// concurrently, and any two distinct stream indices give statistically
// independent children.
func Derive(seed, stream uint64) uint64 {
	sm := seed ^ (stream+1)*0x9e3779b97f4a7c15
	splitMix64(&sm)
	return splitMix64(&sm)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 random mantissa bits.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's method
// with rejection to remove modulo bias. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the top range to remove bias.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Bool returns true with probability p. The draw-free fast paths for
// p <= 0 and p >= 1 consume no stream state; the single-expression body
// keeps Bool (with Float64 and Uint64 folded in) fully inlinable on the
// trace-generation hot path.
func (r *RNG) Bool(p float64) bool {
	return p > 0 && (p >= 1 || r.Float64() < p)
}

// Geometric returns a draw from the geometric distribution: the number of
// Bernoulli(p) failures before the first success. p must be in (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("stats: Geometric requires p in (0,1]")
	}
	if p == 1 {
		return 0
	}
	u := 1 - r.Float64() // (0,1]
	return int(math.Floor(math.Log(u) / math.Log(1-p)))
}

// Binomial returns a draw from Binomial(n, p). For small n it uses direct
// Bernoulli summation; for large n with small p it uses geometric skipping.
func (r *RNG) Binomial(n int, p float64) int {
	if n < 0 {
		panic("stats: Binomial called with n < 0")
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	// Geometric skipping: expected work O(n*p).
	count := 0
	i := -1
	for {
		skip := r.Geometric(p)
		i += skip + 1
		if i >= n {
			break
		}
		count++
	}
	return count
}
