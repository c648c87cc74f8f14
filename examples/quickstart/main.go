// Quickstart: build a power/capacity-scaling L1 cache, derive its
// voltage plan from the fault model, populate its fault map, run a small
// workload under the baseline and under SPCS, and print the energy
// saving — the library's core loop in ~80 lines.
package main

import (
	"fmt"
	"log"

	"repro/internal/cache"
	"repro/internal/cacti"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faultmap"
	"repro/internal/faultmodel"
	"repro/internal/sram"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)

	// 1. Describe the cache: the paper's Config-A L1 (64 KB, 4-way, 64 B).
	org := cacti.Org{Name: "L1", SizeBytes: 64 << 10, Assoc: 4, BlockBytes: 64, AddrBits: 40}
	tech := device.Tech45SOI()
	power, err := cacti.New(org, tech, cacti.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}

	// 2. Derive the three-voltage plan from the SRAM fault model.
	fm, err := faultmodel.New(faultmodel.Geometry{
		Sets: org.Sets(), Ways: org.Assoc, BlockBits: org.BlockBits(),
	}, sram.NewWangCalhounBER())
	if err != nil {
		log.Fatal(err)
	}
	plan, err := core.SelectLevels(fm, tech.VDDNom, tech.VDDMin,
		faultmodel.VDD1CapacityFloor(org.Assoc))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("voltage plan: VDD1=%.2f V  VDD2(SPCS)=%.2f V  VDD3=%.2f V\n",
		plan.Levels.Volts(1), plan.Levels.Volts(plan.SPCSLevel), plan.Levels.Volts(plan.Levels.N()))

	// 3. Populate the fault map (a BIST pass in hardware; Monte Carlo here).
	fmap := core.PopulateMapMonteCarlo(stats.NewRNG(1), plan, org.Blocks())
	fmt.Printf("fault map: %d/%d blocks faulty at the SPCS voltage, %d at VDD1\n",
		fmap.FaultyCount(plan.SPCSLevel), org.Blocks(), fmap.FaultyCount(1))

	// 4. Wire up a baseline controller and an SPCS controller.
	run := func(mode core.Mode) (cycles uint64, energyJ float64) {
		c := cache.MustNew(cache.Config{
			Name: "L1", SizeBytes: org.SizeBytes, Assoc: org.Assoc, BlockBytes: org.BlockBytes})
		var ctrl *core.Controller
		var err error
		target := 0 // baseline: no transition, the cache stays at nominal
		if mode == core.Baseline {
			ctrl, err = core.NewController(c, nil,
				faultmap.MustLevels(tech.VDDNom), power, 2e9, 0)
		} else {
			ctrl, err = core.NewController(c, fmap, plan.Levels,
				power.WithPCS(plan.Levels.FMBits()), 2e9, 20)
			target = plan.SPCSLevel
		}
		if err != nil {
			log.Fatal(err)
		}
		core.NewStatic(ctrl, target).Start(nil)

		// 5. Drive it with a synthetic workload (hits and misses both
		// cost energy; misses cost 100 extra cycles here).
		gen := trace.MustNew(trace.Workload{
			Name: "demo", CodeBytes: 8 << 10, JumpProb: 0.02, ZipfS: 1.1,
			Phases: []trace.Phase{{
				Instructions: 1 << 40, WorkingSetBytes: 96 << 10,
				Mix: trace.PatternMix{Zipf: 0.7, Seq: 0.2}, WriteFrac: 0.3, MemFrac: 1.0,
			}},
		}, 7)
		var ins trace.Instr
		for i := 0; i < 2_000_000; i++ {
			gen.Next(&ins)
			if !ins.HasMem {
				continue
			}
			res := c.Access(ins.Addr, ins.Write)
			ctrl.OnAccess(ins.Write)
			cycles += 2
			if !res.Hit {
				cycles += 100
				if res.Fill {
					ctrl.OnFill()
				}
			}
		}
		e := ctrl.Energy(cycles)
		return cycles, e.TotalJ
	}

	baseCycles, baseE := run(core.Baseline)
	spcsCycles, spcsE := run(core.SPCS)
	fmt.Printf("baseline: %d cycles, %.3f mJ\n", baseCycles, baseE*1e3)
	fmt.Printf("SPCS:     %d cycles, %.3f mJ\n", spcsCycles, spcsE*1e3)
	fmt.Printf("energy saving: %.1f %%   execution overhead: %+.2f %%\n",
		(1-spcsE/baseE)*100, (float64(spcsCycles)/float64(baseCycles)-1)*100)
}
