package multicore

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/trace"
)

// TestOneCoreMatchesCpusim pins that multicore runs cpusim's demand
// path: one core with no shared region must behave exactly like
// cpusim.Run on the same configuration, workload and seed, down to a
// shared-L2 voltage transition's stall, and the L2's energy over the
// measured window. The total cache energy is compared to 1e-12
// relative only: the two simulators add the L1 and L2 energies in
// different orders.
func TestOneCoreMatchesCpusim(t *testing.T) {
	opts := cpusim.RunOptions{WarmupInstr: 50_000, SimInstr: 300_000, Seed: 1}
	for _, cfg := range []cpusim.SystemConfig{cpusim.ConfigA(), cpusim.ConfigB()} {
		for _, bench := range []string{"mcf.s", "bzip2.s"} {
			w, ok := trace.ByName(bench)
			if !ok {
				t.Fatalf("unknown workload %s", bench)
			}
			for _, mode := range []core.Mode{core.Baseline, core.SPCS, core.DPCS} {
				want, err := cpusim.Run(cfg, mode, w, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(Config{System: cfg, Cores: 1}, mode, w, opts.WarmupInstr, opts.SimInstr, opts.Seed)
				if err != nil {
					t.Fatal(err)
				}
				c := got.Cores[0]
				for _, d := range []struct {
					what      string
					got, want any
				}{
					{"cycles", got.GlobalCycles, want.Cycles},
					{"L1I stats", c.L1I, want.L1I.Stats},
					{"L1D stats", c.L1D, want.L1D.Stats},
					{"L2 stats", got.L2, want.L2.Stats},
					{"L2 transitions", got.L2Transitions, want.L2.Transitions},
					{"L2 energy", got.L2EnergyJ, want.L2.Energy.TotalJ},
				} {
					if d.got != d.want {
						t.Errorf("%s/%s/%v: %s %+v, cpusim %+v", cfg.Name, bench, mode, d.what, d.got, d.want)
					}
				}
				if rel := math.Abs(got.TotalCacheEnergyJ-want.TotalCacheEnergyJ) / want.TotalCacheEnergyJ; rel > 1e-12 {
					t.Errorf("%s/%s/%v: total cache energy %g J, cpusim %g J (%.3g relative)",
						cfg.Name, bench, mode, got.TotalCacheEnergyJ, want.TotalCacheEnergyJ, rel)
				}
			}
		}
	}
}
