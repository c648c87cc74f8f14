package multicore

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// scalarInterleave is the per-instruction reference interleave: one
// generator call and one step per core per sweep, in core order.
func scalarInterleave(sys *System) func(ctx context.Context, n uint64) error {
	var ins trace.Instr
	return func(ctx context.Context, n uint64) error {
		for k := uint64(0); k < n; k++ {
			for _, c := range sys.cores {
				c.gen.Next(&ins)
				sys.step(c, &ins)
			}
		}
		return nil
	}
}

// runWith builds a fresh multi-core System and drives it through either
// the per-core block feeds or the scalar reference interleave.
func runWith(t *testing.T, cfg Config, mode core.Mode, w trace.Workload, warm, instr, seed uint64, scalar bool) Result {
	t.Helper()
	sys, err := newSystem(cfg, mode, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var res Result
	if scalar {
		res, err = sys.drive(ctx, warm, instr, scalarInterleave(sys))
	} else {
		res, err = sys.run(ctx, warm, instr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedMatchesSerial is the multi-core half of the block loop's
// safety harness: feeding each core from its own block pipe must be
// observationally identical to the serial reference interleave — same
// per-core cycles and stats, same coherence invalidations, same L2
// behaviour and energies — across all three modes and randomized
// window lengths.
func TestShardedMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("differential run is slow")
	}
	rng := stats.NewRNG(0x5a4d ^ 0x1234)
	suite := trace.Suite()
	for i, mode := range []core.Mode{core.Baseline, core.SPCS, core.DPCS} {
		w := suite[rng.Intn(len(suite))]
		cfg := DefaultConfig()
		cfg.Cores = 2 + rng.Intn(3)
		// Odd lengths land the warm-up/measure boundary mid-block.
		warm := 20_000 + uint64(rng.Intn(3_000))
		instr := 60_000 + uint64(rng.Intn(10_000))
		seed := uint64(rng.Intn(1 << 20))
		sharded := runWith(t, cfg, mode, w, warm, instr, seed, false)
		serial := runWith(t, cfg, mode, w, warm, instr, seed, true)
		if !reflect.DeepEqual(sharded, serial) {
			t.Fatalf("case %d (%s/%v cores=%d seed=%d): sharded run diverges from serial\nsharded: %+v\nserial:  %+v",
				i, w.Name, mode, cfg.Cores, seed, sharded, serial)
		}
	}
}

// countingGen wraps a generator, counting instructions and firing a
// cancel mid-block; see the cpusim counterpart.
type countingGen struct {
	inner  trace.Generator
	at     uint64
	count  uint64
	cancel context.CancelFunc
}

func (g *countingGen) Name() string { return g.inner.Name() }

func (g *countingGen) Next(ins *trace.Instr) {
	g.count++
	if g.count == g.at {
		g.cancel()
	}
	g.inner.Next(ins)
}

// TestCancelBoundedBySweepAndBlock pins the interleave's cancellation
// granularity: after a cancel fires, every core generates at most the
// in-flight poll window of sweeps plus its pipe's one block before the
// loop observes ctx at the next poll.
func TestCancelBoundedBySweepAndBlock(t *testing.T) {
	w, ok := trace.ByName("bzip2.s")
	if !ok {
		t.Fatal("bzip2.s missing from suite")
	}
	cfg := DefaultConfig()
	cfg.Cores = 3
	sys, err := newSystem(cfg, core.DPCS, w, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Wrap every core's generator; the middle core fires the cancel a
	// third of the way into one of its blocks, past warm-up.
	gens := make([]*countingGen, len(sys.cores))
	for i, c := range sys.cores {
		g := &countingGen{inner: c.gen}
		if i == 1 {
			g.at = 30_000 + trace.BlockSize/3
			g.cancel = cancel
		} else {
			g.at = ^uint64(0) // never fires
		}
		gens[i] = g
		c.gen = g
	}
	_, err = sys.run(ctx, 20_000, 1_000_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The cancel is observed within one poll window of the interleave
	// (ctxCheckMask+1 sweeps); beyond that each pipe generates at most
	// the one block it is consuming.
	const slack = (ctxCheckMask + 1) + trace.BlockSize
	for i, g := range gens {
		if g.count > gens[1].at+slack {
			t.Fatalf("core %d generated %d instructions, want <= %d (cancel at %d + slack %d)",
				i, g.count, gens[1].at+slack, gens[1].at, slack)
		}
	}
}

// goroutineID returns the running goroutine's ID from its stack header,
// "goroutine N [running]:".
func goroutineID() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	return strings.Fields(string(buf[:n]))[1]
}

// goroutineGen is a BlockGenerator that records the goroutine each
// NextBlock call runs on.
type goroutineGen struct {
	trace.BlockGenerator
	ran []string
}

func (g *goroutineGen) NextBlock(dst []trace.Instr) int {
	g.ran = append(g.ran, goroutineID())
	return g.BlockGenerator.NextBlock(dst)
}

// TestTraceGeneratedOnCallerGoroutine is the multi-core counterpart of
// the cpusim test: every core's trace is generated on the goroutine
// that runs the cell, even with a second P free.
func TestTraceGeneratedOnCallerGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	w, _ := trace.ByName("gobmk.s")
	cfg := DefaultConfig()
	cfg.Cores = 2
	sys, err := newSystem(cfg, core.DPCS, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	gens := make([]*goroutineGen, len(sys.cores))
	for i, c := range sys.cores {
		gens[i] = &goroutineGen{BlockGenerator: trace.AsBlock(c.gen)}
		c.gen = gens[i]
	}
	if _, err := sys.run(context.Background(), 5_000, 20_000); err != nil {
		t.Fatal(err)
	}
	self := goroutineID()
	for i, g := range gens {
		if len(g.ran) == 0 {
			t.Fatalf("core %d generated no block", i)
		}
		for j, id := range g.ran {
			if id != self {
				t.Fatalf("core %d block %d generated on goroutine %s, want the caller's %s", i, j, id, self)
			}
		}
	}
}
