// Faultinjection: the silicon-style flow end to end. Build an SRAM array
// with injected and Monte-Carlo faults, run March SS at three voltages,
// populate the compressed fault map, attach it to a live cache through a
// PCS controller, and show the transition procedure writing back dirty
// data, invalidating doomed blocks and power-gating them — then bring
// the voltage back up and watch the blocks recover.
package main

import (
	"fmt"
	"log"

	"repro/internal/bist"
	"repro/internal/cache"
	"repro/internal/cacti"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faultmap"
	"repro/internal/sram"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)

	// A small cache: 8 KB, 4-way, 64 B blocks = 128 blocks (one per
	// SRAM row, as in the paper's subarray layout).
	const (
		sizeBytes  = 8 << 10
		assoc      = 4
		blockBytes = 64
	)
	blocks := sizeBytes / blockBytes
	levels := faultmap.MustLevels(0.54, 0.70, 1.00)

	// Physical array: Monte-Carlo Vmin per cell, plus three injected
	// faults so the demo is deterministic and visible.
	arr := sram.NewArray(stats.NewRNG(2024), sram.NewWangCalhounBER(),
		blocks, blockBytes*8, 0.30, 1.00)
	arr.InjectFault(5, 17, 0.60, sram.StuckAt0)   // block 5 dies below 0.60 V
	arr.InjectFault(9, 100, 0.75, sram.WriteFail) // block 9 dies below 0.75 V
	arr.InjectFault(9, 101, 0.60, sram.ReadFlip)  // second fault in block 9

	fmt.Println("running March SS at each VDD level (BIST)...")
	m, results, violations := bist.PopulateFaultMap(bist.MarchSS(), arr, levels)
	for _, r := range results {
		fmt.Printf("  %.2f V: %3d faulty cells in %2d rows\n",
			r.VDD, len(r.FaultyCells), len(r.FaultyRows))
	}
	if len(violations) > 0 {
		log.Fatalf("fault inclusion violated: %v", violations)
	}
	fmt.Printf("fault inclusion verified; FM(block 5)=%d FM(block 9)=%d\n\n",
		m.FM(5), m.FM(9))

	// Attach the map to a live cache via a PCS controller.
	org := cacti.Org{Name: "demo", SizeBytes: sizeBytes, Assoc: assoc,
		BlockBytes: blockBytes, AddrBits: 40}
	cm, err := cacti.New(org, device.Tech45SOI(), cacti.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	c := cache.MustNew(cache.Config{Name: "demo", SizeBytes: sizeBytes,
		Assoc: assoc, BlockBytes: blockBytes})
	ctrl, err := core.NewController(c, m, levels,
		cm.WithPCS(levels.FMBits()), 2e9, 20)
	if err != nil {
		log.Fatal(err)
	}

	// Dirty the whole cache.
	for b := 0; b < blocks; b++ {
		c.Access(uint64(b*blockBytes), true)
	}
	fmt.Printf("cache filled: %d valid blocks, all dirty\n", c.ValidCount())

	// Walk down the voltage ladder.
	now := uint64(0)
	for lvl := levels.N() - 1; lvl >= 1; lvl-- {
		now += 10_000
		var wb int
		res := ctrl.Transition(lvl, now, func(addr uint64) { wb++ })
		fmt.Printf("transition -> %.2f V: %d written back, %d invalidated, %d newly faulty, penalty %d cycles\n",
			levels.Volts(lvl), res.Writebacks, res.Invalidations, res.NewFaulty, res.PenaltyCycles)
		if err := c.CheckInvariants(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("at %.2f V: %d blocks power-gated, effective capacity %.1f %%\n",
		ctrl.VDD(), c.FaultyCount(),
		100*(1-float64(c.FaultyCount())/float64(blocks)))

	// And back up: every block recovers.
	now += 10_000
	res := ctrl.Transition(levels.N(), now, nil)
	fmt.Printf("transition -> %.2f V: %d blocks recovered, %d still faulty\n",
		ctrl.VDD(), res.Recovered, c.FaultyCount())

	e := ctrl.Energy(now + 10_000)
	fmt.Printf("\nenergy ledger: static %.3g J, dynamic %.3g J, transitions %.3g J\n",
		e.StaticJ, e.DynamicJ, e.TransitionJ)
}
