package expers

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/trace"
)

// miniFig4 runs a reduced Fig. 4 (two benchmarks, short windows) to keep
// the unit-test suite fast; the full run lives in cmd/pcs-sim and the
// root benchmarks.
func miniFig4(t *testing.T) Fig4Data {
	t.Helper()
	cfg := cpusim.ConfigA()
	opts := cpusim.RunOptions{WarmupInstr: 100_000, SimInstr: 400_000, Seed: 1}
	data := Fig4Data{Config: cfg.Name}
	for _, name := range []string{"hmmer.s", "libquantum.s"} {
		w, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		row := Fig4Row{Workload: name}
		var err error
		if row.Baseline, err = cpusim.Run(cfg, core.Baseline, w, opts); err != nil {
			t.Fatal(err)
		}
		if row.SPCS, err = cpusim.Run(cfg, core.SPCS, w, opts); err != nil {
			t.Fatal(err)
		}
		if row.DPCS, err = cpusim.Run(cfg, core.DPCS, w, opts); err != nil {
			t.Fatal(err)
		}
		data.Rows = append(data.Rows, row)
	}
	return data
}

func TestFig4RowMetrics(t *testing.T) {
	d := miniFig4(t)
	for _, r := range d.Rows {
		sS := r.EnergySaving(core.SPCS)
		sD := r.EnergySaving(core.DPCS)
		if sS < 0.3 || sS > 0.8 {
			t.Errorf("%s SPCS saving %v implausible", r.Workload, sS)
		}
		if sD < sS-0.02 {
			t.Errorf("%s DPCS saving %v well below SPCS %v", r.Workload, sD, sS)
		}
		if ov := r.ExecOverhead(core.SPCS); ov < -0.01 || ov > 0.05 {
			t.Errorf("%s SPCS overhead %v", r.Workload, ov)
		}
		if ov := r.ExecOverhead(core.DPCS); ov < -0.01 || ov > 0.10 {
			t.Errorf("%s DPCS overhead %v", r.Workload, ov)
		}
		if r.EnergySaving(core.Baseline) != 0 || r.ExecOverhead(core.Baseline) != 0 {
			t.Error("baseline self-comparison nonzero")
		}
	}
}

func TestSummarise(t *testing.T) {
	d := miniFig4(t)
	s := Summarise(d)
	if s.Config != "A" {
		t.Error("config label")
	}
	if s.MeanSavingSPCS <= 0 || s.MeanSavingDPCS <= 0 {
		t.Error("zero savings")
	}
	if s.MaxOverheadDPCS < 0 {
		t.Error("negative max overhead")
	}
	if s.MeanSavingDPCS < s.MeanSavingSPCS-0.02 {
		t.Errorf("mean DPCS %v below SPCS %v", s.MeanSavingDPCS, s.MeanSavingSPCS)
	}
}

func TestFig4Tables(t *testing.T) {
	d := miniFig4(t)
	for _, tbl := range []interface {
		Render(w *strings.Builder) error
	}{} {
		_ = tbl
	}
	var b strings.Builder
	if err := Fig4PowerTable(d, "L1").Render(&b); err != nil {
		t.Fatal(err)
	}
	if err := Fig4PowerTable(d, "L2").Render(&b); err != nil {
		t.Fatal(err)
	}
	if err := Fig4OverheadTable(d).Render(&b); err != nil {
		t.Fatal(err)
	}
	if err := Fig4EnergyTable(d).Render(&b); err != nil {
		t.Fatal(err)
	}
	if err := SummaryTable(Summarise(d)).Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"hmmer.s", "libquantum.s", "SPCS", "DPCS", "Mean SPCS energy saving"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables missing %q", want)
		}
	}
}

func TestFig4RunsWholeSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := cpusim.ConfigA()
	opts := cpusim.RunOptions{WarmupInstr: 20_000, SimInstr: 60_000, Seed: 1}
	d, _, err := Fig4Grid(context.Background(), cfg, opts, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 16 {
		t.Fatalf("%d rows", len(d.Rows))
	}
	for _, r := range d.Rows {
		if r.Baseline.TotalCacheEnergyJ <= 0 {
			t.Errorf("%s zero baseline energy", r.Workload)
		}
	}
}

// TestFig4ParallelMatchesSerial asserts the worker-pool grid produces
// byte-identical Fig4Data to an inline serial cpusim.Run loop: every
// cell pins the same RunOptions.Seed and owns its own System, so worker
// count and completion order cannot influence any simulated result.
func TestFig4ParallelMatchesSerial(t *testing.T) {
	cfg := cpusim.ConfigA()
	opts := cpusim.RunOptions{WarmupInstr: 20_000, SimInstr: 80_000, Seed: 7}
	var workloads []trace.Workload
	for _, name := range []string{"hmmer.s", "mcf.s", "libquantum.s"} {
		w, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		workloads = append(workloads, w)
	}
	serial := Fig4Data{Config: cfg.Name}
	for _, w := range workloads {
		row := Fig4Row{Workload: w.Name}
		var err error
		if row.Baseline, err = cpusim.Run(cfg, core.Baseline, w, opts); err != nil {
			t.Fatal(err)
		}
		if row.SPCS, err = cpusim.Run(cfg, core.SPCS, w, opts); err != nil {
			t.Fatal(err)
		}
		if row.DPCS, err = cpusim.Run(cfg, core.DPCS, w, opts); err != nil {
			t.Fatal(err)
		}
		serial.Rows = append(serial.Rows, row)
	}
	for _, workers := range []int{1, 4} {
		parallel, _, err := Fig4GridWorkloads(context.Background(), cfg, workloads, opts, GridOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d: parallel Fig4Data diverges from serial:\nserial   %+v\nparallel %+v",
				workers, serial, parallel)
		}
	}
}
