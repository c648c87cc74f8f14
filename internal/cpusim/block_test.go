package cpusim

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// scalarWindow is the per-instruction reference loop: one generator
// call and one step per instruction, exactly the pre-block pipeline.
func scalarWindow(sys *System, gen trace.Generator) func(n uint64) error {
	var ins trace.Instr
	return func(n uint64) error {
		for i := uint64(0); i < n; i++ {
			gen.Next(&ins)
			sys.step(&ins)
		}
		return nil
	}
}

// runWith builds a fresh System for (cfg, mode, seed) and drives it with
// its own generator through either the block pipeline or the scalar
// reference loop.
func runWith(t *testing.T, cfg SystemConfig, mode core.Mode, w trace.Workload, opts RunOptions, scalar bool) Result {
	t.Helper()
	sys, err := NewSystem(cfg, mode, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.New(w, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var res Result
	if scalar {
		res, err = sys.drive(ctx, gen.Name(), opts, scalarWindow(sys, gen))
	} else {
		res, err = sys.run(ctx, gen, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBlockLoopMatchesScalar is the block loop's safety harness: for
// randomized workloads, seeds and window lengths (deliberately not
// multiples of the block size) across all three modes, the block
// pipeline and the per-instruction reference loop must produce
// identical Results — same cycles, stats, energies, transitions.
func TestBlockLoopMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("differential run is slow")
	}
	rng := stats.NewRNG(0xb10c)
	suite := trace.Suite()
	for i := 0; i < 6; i++ {
		w := suite[rng.Intn(len(suite))]
		mode := []core.Mode{core.Baseline, core.SPCS, core.DPCS}[i%3]
		opts := RunOptions{
			// Odd lengths exercise the partial final block.
			WarmupInstr: 40_000 + uint64(rng.Intn(5_000)),
			SimInstr:    300_000 + uint64(rng.Intn(50_000)),
			Seed:        uint64(rng.Intn(1 << 20)),
		}
		blk := runWith(t, ConfigA(), mode, w, opts, false)
		ref := runWith(t, ConfigA(), mode, w, opts, true)
		if !reflect.DeepEqual(blk, ref) {
			t.Fatalf("case %d (%s/%v seed=%d warm=%d sim=%d): block pipeline diverges from scalar\nblock:  %+v\nscalar: %+v",
				i, w.Name, mode, opts.Seed, opts.WarmupInstr, opts.SimInstr, blk, ref)
		}
	}
}

// TestBlockLoopZeroAllocs pins the steady-state allocation contract of
// the batched inner loop: simulating one block heap-allocates nothing.
// The workload's single phase is long enough that no phase re-entry
// (which builds a new Zipf table by design) lands inside the window.
func TestBlockLoopZeroAllocs(t *testing.T) {
	w := trace.Workload{
		Name:      "alloc-gate",
		CodeBytes: 16 << 10,
		JumpProb:  0.02,
		ZipfS:     1.0,
		Phases: []trace.Phase{{
			Instructions:    1 << 40,
			WorkingSetBytes: 1 << 20,
			Mix:             trace.PatternMix{Seq: 0.3, Stride: 0.2, Zipf: 0.3, Chase: 0.1},
			WriteFrac:       0.3,
			MemFrac:         0.4,
		}},
	}
	sys, err := NewSystem(ConfigA(), core.DPCS, 1)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.New(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := trace.NewPipe(trace.AsBlock(gen), nil)
	ctx := context.Background()
	// Warm up: fill caches, arm policies, let DPCS settle.
	if err := sys.simulate(ctx, p, 200_000); err != nil {
		t.Fatal(err)
	}
	sys.arm()
	avg := testing.AllocsPerRun(200, func() {
		if err := sys.simulate(ctx, p, trace.BlockSize); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("block loop allocates %v allocs/block, want 0", avg)
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

// TestTraceGeneratedOnCallerGoroutine pins that a run generates its
// trace on the goroutine that called it, even with a second P free for
// another goroutine to take the work: the runner's RUSAGE_THREAD
// attribution (internal/runner/resources.go) is exact only for kinds
// that do all their work on the job's own goroutine.
func TestTraceGeneratedOnCallerGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	w, _ := trace.ByName("bzip2.s")
	g := &goroutineGen{BlockGenerator: trace.AsBlock(trace.MustNew(w, 1))}
	opts := RunOptions{WarmupInstr: 5_000, SimInstr: 20_000, Seed: 1}
	if _, err := RunGenerator(ConfigA(), core.DPCS, g, opts); err != nil {
		t.Fatal(err)
	}
	if len(g.ran) == 0 {
		t.Fatal("no block was generated")
	}
	self := goroutineID()
	for i, id := range g.ran {
		if id != self {
			t.Fatalf("block %d generated on goroutine %s, want the caller's %s", i, id, self)
		}
	}
}
