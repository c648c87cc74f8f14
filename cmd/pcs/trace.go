package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/trace"
)

// traceCommand records the synthetic SPEC-like workloads to the compact
// binary trace format and replays recorded traces through the simulator
// — the old pcs-trace binary as a subcommand. Recording makes runs
// exchangeable and exactly repeatable across library versions: the
// trace, not the generator, becomes the ground truth. Every report line
// goes to stdout, so tests can run the command in process.
func traceCommand(stdout io.Writer) *cli.Command {
	var (
		record  bool
		replay  string
		info    string
		bench   string
		n       uint64
		out     string
		seed    uint64
		cfgName string
		mode    string
		warmup  uint64
	)
	return &cli.Command{
		Name:    "trace",
		Summary: "record, replay and inspect workload traces",
		Usage:   "-record -bench mcf.s -n 1000000 -o mcf.trc | -replay mcf.trc [-mode dpcs] | -info mcf.trc",
		SetFlags: func(fs *flag.FlagSet) {
			fs.BoolVar(&record, "record", false, "record a workload to a trace file")
			fs.StringVar(&replay, "replay", "", "trace file to replay through the simulator")
			fs.StringVar(&info, "info", "", "trace file to summarise")
			fs.StringVar(&bench, "bench", "hmmer.s", "workload to record")
			fs.Uint64Var(&n, "n", 1_000_000, "instructions to record")
			fs.StringVar(&out, "o", "out.trc", "output trace path")
			fs.Uint64Var(&seed, "seed", 1, "generator seed for -record")
			fs.StringVar(&cfgName, "config", "A", "system configuration for -replay")
			fs.StringVar(&mode, "mode", "spcs", "policy for -replay: baseline, SPCS or DPCS (any case)")
			fs.Uint64Var(&warmup, "warmup", 100_000, "warm-up instructions for -replay")
		},
		Run: func(fs *flag.FlagSet) error {
			switch {
			case record:
				return doRecord(stdout, bench, n, out, seed)
			case replay != "":
				return doReplay(stdout, replay, cfgName, mode, warmup, seed)
			case info != "":
				return doInfo(stdout, info)
			default:
				return fmt.Errorf("pick a mode: -record, -replay file or -info file")
			}
		},
	}
}

func doRecord(stdout io.Writer, bench string, n uint64, out string, seed uint64) error {
	w, ok := trace.ByName(bench)
	if !ok {
		return fmt.Errorf("unknown benchmark %q (known: %v)", bench, trace.Names())
	}
	g, err := trace.New(w, seed)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Record(g, n, f); err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d instructions of %s to %s (%.2f bytes/instr)\n",
		n, bench, out, float64(st.Size())/float64(n))
	return nil
}

func openReplay(path string) (*trace.ReplayGenerator, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := trace.NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	var open []io.Closer
	open = append(open, f)
	gen := trace.NewReplay(path, r, func() (*trace.Reader, error) {
		f2, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		open = append(open, f2)
		return trace.NewReader(f2)
	})
	closeAll := func() {
		for _, c := range open {
			c.Close()
		}
	}
	return gen, closeAll, nil
}

func doReplay(stdout io.Writer, path, config, modeName string, warmup, seed uint64) error {
	cfg, err := cpusim.ConfigByName(config)
	if err != nil {
		return err
	}
	m, err := core.ParseMode(modeName)
	if err != nil {
		return err
	}
	gen, closeAll, err := openReplay(path)
	if err != nil {
		return err
	}
	defer closeAll()

	// Count the trace first so the measured window fits the recording.
	total, err := countTrace(path)
	if err != nil {
		return err
	}
	if warmup >= total {
		return fmt.Errorf("warm-up %d exceeds trace length %d", warmup, total)
	}

	res, err := cpusim.RunGenerator(cfg, m, gen, cpusim.RunOptions{
		WarmupInstr: warmup, SimInstr: total - warmup, Seed: seed,
	})
	if err != nil {
		return err
	}
	if err := gen.Err(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, res)
	return nil
}

func doInfo(stdout io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	var ins trace.Instr
	var total, mem, writes uint64
	minA, maxA := ^uint64(0), uint64(0)
	for {
		if err := r.Read(&ins); err != nil {
			if err == io.EOF {
				break
			}
			return err
		}
		total++
		if ins.HasMem {
			mem++
			if ins.Write {
				writes++
			}
			if ins.Addr < minA {
				minA = ins.Addr
			}
			if ins.Addr > maxA {
				maxA = ins.Addr
			}
		}
	}
	fmt.Fprintf(stdout, "%s: %d instructions, %.1f%% memory ops (%.1f%% writes), data range [%#x, %#x]\n",
		path, total, 100*float64(mem)/float64(total),
		100*float64(writes)/float64(maxU(mem, 1)), minA, maxA)
	return nil
}

func countTrace(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return 0, err
	}
	var ins trace.Instr
	var total uint64
	for {
		if err := r.Read(&ins); err != nil {
			if err == io.EOF {
				return total, nil
			}
			return 0, err
		}
		total++
	}
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
