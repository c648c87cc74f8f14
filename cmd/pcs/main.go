// Command pcs is the single entry point to the Power/Capacity Scaling
// reproduction. Every experiment the repository defines is a
// subcommand:
//
//	pcs sim         Fig. 4 architectural simulation grid
//	pcs sweep       design-space studies around the mechanism
//	pcs multicore   multi-core extension (shared PCS-managed L2)
//	pcs analytical  Fig. 2/3, area, and voltage-plan tables
//	pcs bist        BIST / fault-map characterisation demo
//	pcs trace       record, replay and inspect workload traces
//	pcs figures     render the paper figures as SVG
//	pcs report      full reproduction as one Markdown report
//	pcs serve       HTTP campaign job service
//	pcs top         per-cell resource attribution (run dir or live server)
//	pcs verify      check a run directory's hash-chained ledger
//	pcs cache       inspect or prune the content-addressed result store
//	pcs version     print the build version
//
// The simulation-grid commands (sim, sweep, multicore) also accept
// -spec file.json, a declarative JSON experiment document (see
// internal/config); the same document is the body a pcs serve instance
// accepts at POST /campaigns. Any flag can be defaulted from the
// environment as PCS_<FLAG> (e.g. PCS_WORKERS=8); explicit flags win.
//
// The campaign commands also accept -cache DIR (env PCS_CACHE): a
// content-addressed result store that memoizes experiment cells, so a
// re-run of an already-computed campaign is served from cache while
// still producing byte-identical result files (see internal/resultstore
// and DESIGN.md).
package main

import (
	"os"

	"repro/internal/cli"
	"repro/internal/version"
)

func main() {
	app := &cli.App{
		Name:      "pcs",
		Summary:   "Power/Capacity Scaling reproduction toolkit",
		EnvPrefix: "PCS",
		Version:   version.String(),
	}
	app.Register(
		simCommand(os.Stdout, os.Stderr),
		sweepCommand(os.Stdout, os.Stderr),
		multicoreCommand(os.Stdout, os.Stderr),
		analyticalCommand(os.Stdout),
		bistCommand(),
		traceCommand(os.Stdout),
		figuresCommand(),
		reportCommand(os.Stdout, os.Stderr),
		serveCommand(),
		topCommand(os.Stdout),
		verifyCommand(os.Stdout, os.Stderr),
		cacheCommand(os.Stdout),
	)
	os.Exit(app.Run(os.Args[1:]))
}
