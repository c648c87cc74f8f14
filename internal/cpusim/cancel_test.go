package cpusim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestRunContextCancelled checks a cancelled context stops the
// simulation mid-flight instead of running to completion.
func TestRunContextCancelled(t *testing.T) {
	w, ok := trace.ByName("bzip2.s")
	if !ok {
		t.Fatal("bzip2.s missing from suite")
	}
	// Already-cancelled context: the run must abort during warm-up.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := RunOptions{WarmupInstr: 1_000_000, SimInstr: 100_000_000, Seed: 1}
	start := time.Now()
	_, err := RunContext(ctx, ConfigA(), core.DPCS, w, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// 100M instructions would take many seconds; aborting must not.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled run took %s", elapsed)
	}
}

// TestRunContextMidFlightCancel cancels during the measured window.
func TestRunContextMidFlightCancel(t *testing.T) {
	w, _ := trace.ByName("bzip2.s")
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	opts := RunOptions{WarmupInstr: 10_000, SimInstr: 2_000_000_000, Seed: 1}
	start := time.Now()
	_, err := RunContext(ctx, ConfigA(), core.Baseline, w, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("mid-flight cancel took %s", elapsed)
	}
}

// cancellingGen wraps a generator and cancels a context after exactly
// `at` instructions have been produced — landing the cancel mid-block —
// while counting every instruction generated afterwards.
type cancellingGen struct {
	inner  trace.Generator
	at     uint64
	count  uint64
	cancel context.CancelFunc
}

func (g *cancellingGen) Name() string { return g.inner.Name() }

func (g *cancellingGen) Next(ins *trace.Instr) {
	g.count++
	if g.count == g.at {
		g.cancel()
	}
	g.inner.Next(ins)
}

// TestCancelStopsWithinOneBlock pins the block pipeline's cancellation
// granularity: a cancel arriving mid-block must return ctx.Err() at
// the next block-boundary poll. The pipe generates one block at a time
// on the simulating goroutine, so fewer than one block is generated
// past the cancel.
func TestCancelStopsWithinOneBlock(t *testing.T) {
	w, _ := trace.ByName("bzip2.s")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Fire a third of the way into a block, past warmup.
	const fireAt = 50_000 + trace.BlockSize/3
	g := &cancellingGen{inner: trace.MustNew(w, 1), at: fireAt, cancel: cancel}
	opts := RunOptions{WarmupInstr: 50_000, SimInstr: 2_000_000_000, Seed: 1}
	_, err := RunGeneratorContext(ctx, ConfigA(), core.DPCS, g, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	over := g.count - fireAt
	if over >= trace.BlockSize {
		t.Fatalf("generated %d instructions past the cancel, want < %d (one block)",
			over, trace.BlockSize)
	}
}

// TestRunContextBackgroundMatchesRun checks the context plumbing does
// not perturb results: Run and RunContext(Background) are identical.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	w, _ := trace.ByName("bzip2.s")
	opts := RunOptions{WarmupInstr: 5_000, SimInstr: 20_000, Seed: 3}
	a, err := Run(ConfigA(), core.SPCS, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), ConfigA(), core.SPCS, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.TotalCacheEnergyJ != b.TotalCacheEnergyJ {
		t.Fatalf("Run %+v != RunContext %+v", a, b)
	}
}
