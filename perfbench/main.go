// Command perfbench is the repository's benchmark: it drives the
// Fig. 4 simulator and the campaign layers through the same public
// entry points the pcs commands use (expers.Fig4GridWorkloads,
// runner.Run, resultstore.Open), from one closed-loop client process,
// and prints one JSON result line. README.md in this directory
// documents the workloads, the metrics and how runs were sized.
//
// Usage, from the repository root (run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload fig4|cold|cached --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/stats"
	"repro/internal/version"
)

// hardCap bounds a run's measuring loop whatever the program's speed,
// so a run always ends well inside the 180 s a run may take.
const hardCap = 120 * time.Second

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state shared by every workload of one run.
type bench struct {
	ctx      context.Context
	workload string
	seed     uint64
	// simSeed is the simulation seed the program receives, derived
	// from the benchmark seed.
	simSeed uint64
	seconds time.Duration
	workers int
	root    string
	scratch string
	log     io.Writer

	attempted, failed int
	// failures keeps the first few failure descriptions for stderr.
	failures []string

	metrics map[string]metric
	// samples records how many values each reported metric summarises.
	samples map[string]int
}

// fail counts one failed op.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// set records a metric with its sample count.
func (b *bench) set(name string, v float64, unit string, n int) {
	b.metrics[name] = metric{Value: v, Unit: unit}
	b.samples[name] = n
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload: fig4, cold or cached")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are made from")
		seconds  = flag.Int("seconds", 30, "seconds the run measures")
		traceOn  = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		root     = flag.String("root", ".", "repository root; scratch space goes under its .bench_build")
	)
	flag.Parse()
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var do func(*bench) error
	switch *workload {
	case "fig4":
		do = (*bench).fig4
	case "cold":
		do = (*bench).cold
	case "cached":
		do = (*bench).cached
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (fig4, cold, cached)\n", *workload)
		return 2
	}
	if *traceOn == 1 {
		switch *workload {
		case "fig4":
			do = (*bench).fig4Traced
		case "cold":
			do = (*bench).coldTraced
		case "cached":
			do = (*bench).cachedTraced
		}
	}

	// The program runs on one P with one campaign worker, so the client
	// never waits on another thread: every trace.Pipe refills inline
	// and a cell's wall time is its CPU time. With a worker and a
	// producer per vCPU, cells waited on vCPU wake-ups whose latency
	// drifted with the host's load (README.md, Load).
	runtime.GOMAXPROCS(1)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	scratch := filepath.Join(*root, ".bench_build", fmt.Sprintf("scratch-%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	simSeed := stats.Derive(*seed, 0x5eed)
	if simSeed == 0 {
		simSeed = 1
	}
	b := &bench{
		ctx:      ctx,
		workload: *workload,
		seed:     *seed,
		simSeed:  simSeed,
		seconds:  time.Duration(*seconds) * time.Second,
		workers:  1,
		root:     *root,
		scratch:  scratch,
		log:      os.Stderr,
		metrics:  map[string]metric{},
		samples:  map[string]int{},
	}
	if err := do(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	res := result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	b.report(*traceOn == 1)
	meta, err := json.Marshal(map[string]any{"meta": b.meta(*traceOn == 1), "samples": b.samples})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(meta))
	fmt.Println(string(line))
	return 0
}

// meta describes the run: what the numbers were measured on and with.
func (b *bench) meta(traced bool) map[string]any {
	return map[string]any{
		"workload":       b.workload,
		"seed":           b.seed,
		"sim_seed":       b.simSeed,
		"seconds":        b.seconds.Seconds(),
		"traced":         traced,
		"ops":            b.attempted,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"workers":        b.workers,
		"go":             runtime.Version(),
		"revision":       version.String(),
		"scratch_fstype": fsType(b.scratch),
	}
}

// report prints every metric with its unit and sample count, the op
// counts and any failures to stderr.
func (b *bench) report(traced bool) {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	kind := "end-to-end"
	if traced {
		kind = "per-layer"
	}
	fmt.Fprintf(b.log, "perfbench %s (%s): ops attempted %d, failed %d\n", b.workload, kind, b.attempted, b.failed)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Fprintf(b.log, "  %-30s %14.6g %-9s n=%d\n", n, m.Value, m.Unit, b.samples[n])
	}
	for _, f := range b.failures {
		fmt.Fprintf(b.log, "  FAILED: %s\n", f)
	}
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// window runs step until the measured window has elapsed and at least
// minOps ops were attempted (or hardCap passed), stopping early only if
// the run is cancelled or step fails.
func (b *bench) window(minOps int, step func() error) error {
	start := time.Now()
	for time.Since(start) < b.seconds || b.attempted < minOps {
		if time.Since(start) > hardCap {
			fmt.Fprintf(b.log, "perfbench: stopping at the %v cap after %d ops\n", hardCap, b.attempted)
			break
		}
		if err := b.ctx.Err(); err != nil {
			return err
		}
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}
