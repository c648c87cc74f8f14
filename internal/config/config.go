// Package config defines the declarative experiment-spec layer: a
// versioned, validated JSON document that describes a complete
// experiment — the Fig. 4 simulation grid, a design-space sweep, a
// multi-core study, or a raw campaign job list — independently of how
// it is executed. The pcs CLI loads a spec with -spec and runs it
// locally; POST /campaigns on a pcs serve instance accepts the same
// document, decoded by the same Decode, and runs ExpandCampaign's jobs
// through the same registry. Those are the jobs the CLI runs for every
// section: a sim section expands to the "fig4-cell" jobs of
// expers.Fig4CellJobs, which pcs sim runs through
// expers.Fig4GridWorkloads, so a grid computed on either path is served
// from the result store on the other.
//
// # Document shape
//
// Every document carries a schema version (currently 1), an optional
// name, a master seed (default 1) and a worker count (default
// GOMAXPROCS at run time), plus exactly one experiment section:
//
//	{"version": 1, "sim": {...}}            the Fig. 4 grid
//	{"version": 1, "sweep": {...}}          design-space studies
//	{"version": 1, "multicore": {...}}      the multi-core extension
//	{"version": 1, "campaign": {...}}       explicit job list
//
// Decoding is strict: unknown fields anywhere in the document —
// including inside per-job parameter payloads — are rejected, so a
// typoed knob fails loudly instead of silently running the default
// experiment.
//
// # Seed derivation
//
// The document seed is the campaign master seed. Grid sections (sim,
// sweep, multicore) pin that seed into every job's parameters, so all
// cells of one grid share fault maps and workloads and are directly
// comparable — exactly how the historical binaries seeded their runs. A
// campaign-section job whose params omit "seed" (or set it to 0) gets
// the runner's derived per-job seed, stats.Derive(master, index), which
// is what Monte-Carlo campaigns want.
package config

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/expers"
	"repro/internal/mechanism"
	"repro/internal/runner"
	"repro/internal/trace"
)

// Version is the current spec schema version.
const Version = 1

// Document is one experiment spec. Exactly one of the experiment
// sections (Sim, Sweep, Multicore, Campaign) must be present.
type Document struct {
	// Version is the spec schema version; must be 1.
	Version int `json:"version"`
	// Name labels the campaign and its runs/<name>/ artifacts. Defaults
	// to the experiment section's name.
	Name string `json:"name,omitempty"`
	// Seed is the master seed; defaults to 1 (the golden-output seed).
	Seed uint64 `json:"seed,omitempty"`
	// Workers sizes the worker pool; 0 means GOMAXPROCS at run time.
	Workers int `json:"workers,omitempty"`

	Sim       *SimSpec       `json:"sim,omitempty"`
	Sweep     *SweepSpec     `json:"sweep,omitempty"`
	Multicore *MulticoreSpec `json:"multicore,omitempty"`
	Campaign  *CampaignSpec  `json:"campaign,omitempty"`
}

// SimSpec describes the Fig. 4 architectural simulation: the 16-workload
// suite (or one named benchmark) under baseline, SPCS and DPCS.
type SimSpec struct {
	// Config selects the system configuration: "A", "B" or "both"
	// (default "both").
	Config string `json:"config,omitempty"`
	// Bench restricts the run to one named benchmark; empty means the
	// full suite.
	Bench string `json:"bench,omitempty"`
	// WarmupInstr is the fast-forward window (default 2,000,000).
	WarmupInstr uint64 `json:"warmup_instr,omitempty"`
	// SimInstr is the measured window (default 24,000,000 — the
	// fig4_output.txt scale).
	SimInstr uint64 `json:"sim_instr,omitempty"`
}

// SweepSpec describes the design-space studies around the mechanism.
type SweepSpec struct {
	// Studies lists the studies to run, in order. Empty means all of
	// them in the canonical order: assoc, levels, cells, leakage, dpcs,
	// ablate, mechs.
	Studies []string `json:"studies,omitempty"`
	// Mechanisms selects the fault-tolerance mechanisms the "mechs"
	// study compares, by registry name (internal/mechanism). Empty
	// means every registered mechanism.
	Mechanisms []string `json:"mechanisms,omitempty"`
	// Bench is the workload for the dpcs study (default "bzip2.s").
	Bench string `json:"bench,omitempty"`
	// SimInstr is the measured window for the simulation-backed studies
	// (dpcs, leakage, ablate; default 4,000,000).
	SimInstr uint64 `json:"sim_instr,omitempty"`
}

// MulticoreSpec describes the multi-core extension study: a core-count ×
// policy grid over one shared PCS-managed L2.
type MulticoreSpec struct {
	// Config selects the system configuration: "A" (default) or "B".
	Config string `json:"config,omitempty"`
	// Bench is the workload run on every core (default "gobmk.s").
	Bench string `json:"bench,omitempty"`
	// Cores lists the core counts to sweep (default [1, 2, 4]).
	Cores []int `json:"cores,omitempty"`
	// WarmupInstr is the per-core fast-forward window (default 400,000).
	WarmupInstr uint64 `json:"warmup_instr,omitempty"`
	// InstrPerCore is the measured window per core (default 2,000,000).
	InstrPerCore uint64 `json:"instr_per_core,omitempty"`
	// SharedBytes is the shared-region size (default 1 MiB).
	SharedBytes uint64 `json:"shared_bytes,omitempty"`
	// SharedFrac is the fraction of data accesses hitting the shared
	// region (default 0.10).
	SharedFrac float64 `json:"shared_frac,omitempty"`
	// CoherencePenaltyCycles is the invalidation penalty (default 20).
	CoherencePenaltyCycles uint64 `json:"coherence_penalty_cycles,omitempty"`
}

// CampaignSpec is an explicit job list — the escape hatch for campaigns
// the grid sections do not express (Monte-Carlo sweeps, mixed kinds).
type CampaignSpec struct {
	Jobs []Job `json:"jobs"`
}

// Job is one campaign job: a registered experiment kind plus its
// parameter document.
type Job struct {
	Kind   string          `json:"kind"`
	Name   string          `json:"name,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`
}

// ApplyDefaults fills every omitted field with its documented default,
// recursively into the experiment section. It does not validate; call
// Validate after.
func (d *Document) ApplyDefaults() {
	if d.Seed == 0 {
		d.Seed = 1
	}
	switch {
	case d.Sim != nil:
		if d.Name == "" {
			d.Name = "sim"
		}
		d.Sim.applyDefaults()
	case d.Sweep != nil:
		if d.Name == "" {
			d.Name = "sweep"
		}
		d.Sweep.applyDefaults()
	case d.Multicore != nil:
		if d.Name == "" {
			d.Name = "multicore"
		}
		d.Multicore.applyDefaults()
	case d.Campaign != nil:
		if d.Name == "" {
			d.Name = "campaign"
		}
	}
}

func (s *SimSpec) applyDefaults() {
	if s.Config == "" {
		s.Config = "both"
	}
	if s.WarmupInstr == 0 {
		s.WarmupInstr = 2_000_000
	}
	if s.SimInstr == 0 {
		s.SimInstr = 24_000_000
	}
}

func (s *SweepSpec) applyDefaults() {
	if len(s.Studies) == 0 {
		s.Studies = expers.StudyNames()
	}
	if s.Bench == "" {
		s.Bench = "bzip2.s"
	}
	if s.SimInstr == 0 {
		s.SimInstr = 4_000_000
	}
}

func (s *MulticoreSpec) applyDefaults() {
	if s.Config == "" {
		s.Config = "A"
	}
	if s.Bench == "" {
		s.Bench = "gobmk.s"
	}
	if len(s.Cores) == 0 {
		s.Cores = []int{1, 2, 4}
	}
	if s.WarmupInstr == 0 {
		s.WarmupInstr = 400_000
	}
	if s.InstrPerCore == 0 {
		s.InstrPerCore = 2_000_000
	}
	if s.SharedBytes == 0 {
		s.SharedBytes = 1 << 20
	}
	if s.SharedFrac == 0 {
		s.SharedFrac = 0.10
	}
	if s.CoherencePenaltyCycles == 0 {
		s.CoherencePenaltyCycles = 20
	}
}

// Validate checks the document after ApplyDefaults: schema version,
// exactly one experiment section, known benchmarks and studies, and —
// for the campaign section — known kinds with well-formed parameter
// documents.
func (d *Document) Validate() error {
	if d.Version != Version {
		return fmt.Errorf("config: unsupported spec version %d (this build speaks version %d)", d.Version, Version)
	}
	n := 0
	for _, set := range []bool{d.Sim != nil, d.Sweep != nil, d.Multicore != nil, d.Campaign != nil} {
		if set {
			n++
		}
	}
	if n != 1 {
		return fmt.Errorf("config: want exactly one experiment section (sim, sweep, multicore or campaign), got %d", n)
	}
	switch {
	case d.Sim != nil:
		return d.Sim.validate()
	case d.Sweep != nil:
		return d.Sweep.validate()
	case d.Multicore != nil:
		return d.Multicore.validate()
	default:
		return d.Campaign.validate()
	}
}

// systemConfigs resolves a sim config selector to the configs to run.
func systemConfigs(sel string) ([]string, error) {
	switch strings.ToUpper(strings.TrimSpace(sel)) {
	case "A":
		return []string{"A"}, nil
	case "B":
		return []string{"B"}, nil
	case "BOTH":
		return []string{"A", "B"}, nil
	default:
		return nil, fmt.Errorf("config: unknown system config %q (want A, B or both)", sel)
	}
}

func validBench(name string) error {
	if _, ok := trace.ByName(name); !ok {
		return fmt.Errorf("config: unknown benchmark %q (known: %v)", name, trace.Names())
	}
	return nil
}

func (s *SimSpec) validate() error {
	if _, err := systemConfigs(s.Config); err != nil {
		return err
	}
	if s.Bench != "" {
		if err := validBench(s.Bench); err != nil {
			return err
		}
	}
	if s.SimInstr == 0 {
		return fmt.Errorf("config: sim needs sim_instr > 0")
	}
	return nil
}

func (s *SweepSpec) validate() error {
	known := expers.StudyNames()
	seen := make(map[string]bool, len(s.Studies))
	for _, st := range s.Studies {
		ok := false
		for _, k := range known {
			if st == k {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("config: unknown study %q (known: %v)", st, known)
		}
		if seen[st] {
			return fmt.Errorf("config: study %q listed twice", st)
		}
		seen[st] = true
	}
	seenMech := make(map[string]bool, len(s.Mechanisms))
	for _, m := range s.Mechanisms {
		if _, ok := mechanism.ByName(m); !ok {
			return fmt.Errorf("config: unknown mechanism %q (known: %v)", m, mechanism.Names())
		}
		if seenMech[m] {
			return fmt.Errorf("config: mechanism %q listed twice", m)
		}
		seenMech[m] = true
	}
	if err := validBench(s.Bench); err != nil {
		return err
	}
	if s.SimInstr == 0 {
		return fmt.Errorf("config: sweep needs sim_instr > 0")
	}
	return nil
}

func (s *MulticoreSpec) validate() error {
	switch strings.ToUpper(strings.TrimSpace(s.Config)) {
	case "A", "B":
	default:
		return fmt.Errorf("config: unknown system config %q (want A or B)", s.Config)
	}
	if err := validBench(s.Bench); err != nil {
		return err
	}
	for _, c := range s.Cores {
		if c < 1 {
			return fmt.Errorf("config: bad core count %d", c)
		}
	}
	if s.InstrPerCore == 0 {
		return fmt.Errorf("config: multicore needs instr_per_core > 0")
	}
	if s.SharedFrac < 0 || s.SharedFrac > 1 {
		return fmt.Errorf("config: shared_frac %v outside [0, 1]", s.SharedFrac)
	}
	return nil
}

func (s *CampaignSpec) validate() error {
	if len(s.Jobs) == 0 {
		return fmt.Errorf("config: campaign has no jobs")
	}
	for i, j := range s.Jobs {
		if _, err := NormalizeJob(j); err != nil {
			return fmt.Errorf("config: job %d: %w", i, err)
		}
	}
	return nil
}

// defaulter is the shape every campaign kind's parameter type shares:
// fill documented defaults, then check the document is runnable.
type defaulter interface {
	ApplyDefaults()
	Validate() error
}

// kindParams maps every registered campaign kind to a fresh parameter
// prototype; NormalizeJob strict-decodes against it.
var kindParams = map[string]func() defaulter{
	"multicore":  func() defaulter { return new(expers.MulticoreParams) },
	"minvdd":     func() defaulter { return new(expers.MinVDDParams) },
	"mechminvdd": func() defaulter { return new(expers.MechMinVDDParams) },
	"vddlevels":  func() defaulter { return new(expers.VDDLevelsParams) },
	"cells":      func() defaulter { return new(expers.CellsParams) },
	"leakage":    func() defaulter { return new(expers.LeakageParams) },
	"fig4-cell":  func() defaulter { return new(expers.Fig4CellParams) },
}

// KnownKinds returns the campaign kinds the spec layer validates
// against, sorted.
func KnownKinds() []string {
	out := make([]string, 0, len(kindParams))
	for k := range kindParams {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NormalizeJob validates one campaign-section job — known kind, strict
// parameter decode — and returns it with defaults applied and the
// parameter document re-marshalled canonically.
func NormalizeJob(j Job) (runner.Spec, error) {
	proto, ok := kindParams[j.Kind]
	if !ok {
		return runner.Spec{}, fmt.Errorf("unknown kind %q (known: %v)", j.Kind, KnownKinds())
	}
	p := proto()
	if len(j.Params) > 0 {
		if err := strictDecodeJSON([]byte(j.Params), p); err != nil {
			return runner.Spec{}, fmt.Errorf("kind %q params: %w", j.Kind, err)
		}
	}
	p.ApplyDefaults()
	if err := p.Validate(); err != nil {
		return runner.Spec{}, fmt.Errorf("kind %q params: %w", j.Kind, err)
	}
	raw, err := marshalJSON(p)
	if err != nil {
		return runner.Spec{}, err
	}
	return runner.Spec{Kind: j.Kind, Name: j.Name, Params: raw}, nil
}
