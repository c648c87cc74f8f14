package expers

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/faultmodel"
	"repro/internal/mechanism"
	"repro/internal/multicore"
	"repro/internal/runner"
	"repro/internal/trace"
)

// This file defines the standard experiment kinds for the campaign
// runner (internal/runner): each kind wraps one of the repository's
// simulation or analytical entry points behind a JSON parameter
// document, so sweeps and Monte-Carlo campaigns can be expressed as
// data — locally by the cmd harnesses or remotely via pcs-server.
//
// Seeding convention: a params document with Seed == 0 uses the
// runner-derived per-job seed (campaign seed + job index), which is what
// Monte-Carlo campaigns want. A non-zero Seed pins the run — grid sweeps
// pin it so that e.g. baseline/SPCS/DPCS cells of the same grid point
// share fault maps and are directly comparable.

// RegisterCampaignKinds installs the standard kinds on reg:
//
//	fig4-cell  one single-core simulation: a workload under one mode
//	           with its full SystemConfig embedded (Fig4CellParams →
//	           cpusim.Result); every Fig. 4 cell, sim-section cell and
//	           dpcs/ablate study cell is one
//	multicore  one multi-core simulation (MulticoreParams → MulticoreOutput)
//	minvdd     analytical min-VDD for a cache geometry (MinVDDParams → MinVDDOutput)
//	mechminvdd analytical summary of one registered fault-tolerance
//	           mechanism: min-VDD at a yield target plus the capacity,
//	           static power and area cost there (MechMinVDDParams →
//	           MechMinVDDOutput)
//	vddlevels  fault-map cost and SPCS power vs level count (VDDLevelsParams → VDDLevelsOutput)
//	cells      bit-cell design comparison (CellsParams → []CellRow)
//	leakage    leakage-technique comparison (LeakageParams → []LeakageRow)
//
// Every kind carries cache metadata (runner.KindInfo): the decoder
// reconstructs the kind's concrete output type from a stored result
// document, so content-addressed cache hits are indistinguishable from
// computed results to downstream type assertions; Seeded marks the
// kinds whose output actually depends on the seed, so the analytical
// kinds share cache entries across campaigns with different master
// seeds.
func RegisterCampaignKinds(reg *runner.Registry) {
	reg.MustRegisterKind("fig4-cell", runFig4CellJob, kindInfo[cpusim.Result](true))
	// multicore keeps the L2 host and every core's system live at
	// once, which the arena's build-invalidates-previous contract
	// forbids; it runs arena-less and still gets the memoized statics
	// (see internal/multicore's concurrency contract).
	mcInfo := kindInfo[MulticoreOutput](true)
	mcInfo.NewWorkerState = nil
	reg.MustRegisterKind("multicore", runMulticoreJob, mcInfo)
	reg.MustRegisterKind("minvdd", runMinVDDJob, kindInfo[MinVDDOutput](false))
	reg.MustRegisterKind("mechminvdd", runMechMinVDDJob, kindInfo[MechMinVDDOutput](false))
	reg.MustRegisterKind("vddlevels", runVDDLevelsJob, kindInfo[VDDLevelsOutput](false))
	reg.MustRegisterKind("cells", runCellsJob, kindInfo[[]CellRow](false))
	reg.MustRegisterKind("leakage", runLeakageJob, kindInfo[[]LeakageRow](true))
}

// kindInfo builds the cache metadata for a kind returning T. Every
// kind gets a CellArena worker-state factory; the analytical kinds
// simply never read theirs (their reuse comes from the memo layer).
func kindInfo[T any](seeded bool) runner.KindInfo {
	return runner.KindInfo{
		Seeded:         seeded,
		NewWorkerState: func() any { return NewCellArena() },
		DecodeOutput: func(data []byte) (any, error) {
			var out T
			if err := json.Unmarshal(data, &out); err != nil {
				return nil, fmt.Errorf("expers: decode cached output: %w", err)
			}
			return out, nil
		},
	}
}

// NewCampaignRegistry returns a registry preloaded with the standard
// kinds; pcs-server and the cmd harnesses start from this.
func NewCampaignRegistry() *runner.Registry {
	reg := runner.NewRegistry()
	RegisterCampaignKinds(reg)
	return reg
}

// modeByName resolves a job's policy mode name through core.ParseMode;
// an empty name means baseline.
func modeByName(name string) (core.Mode, error) {
	if strings.TrimSpace(name) == "" {
		return core.Baseline, nil
	}
	m, err := core.ParseMode(name)
	if err != nil {
		return 0, fmt.Errorf("expers: unknown mode %q (want baseline, SPCS or DPCS)", name)
	}
	return m, nil
}

// MulticoreParams parameterise one "multicore" job.
type MulticoreParams struct {
	Config       string  `json:"config"`
	Mode         string  `json:"mode"`
	Cores        int     `json:"cores"`
	Bench        string  `json:"bench"`
	WarmupInstr  uint64  `json:"warmup_instr"`
	InstrPerCore uint64  `json:"instr_per_core"`
	SharedBytes  uint64  `json:"shared_bytes"`
	SharedFrac   float64 `json:"shared_frac"`
	// CoherencePenaltyCycles defaults to 20 when zero.
	CoherencePenaltyCycles uint64 `json:"coherence_penalty_cycles,omitempty"`
	// Seed pins the run when non-zero; zero uses the derived job seed.
	Seed uint64 `json:"seed,omitempty"`
}

// ApplyDefaults fills the documented defaults: Config A, baseline mode,
// a 20-cycle coherence penalty. Cores is required, not defaulted.
func (p *MulticoreParams) ApplyDefaults() {
	if p.Config == "" {
		p.Config = "A"
	}
	if p.Mode == "" {
		p.Mode = "baseline"
	}
	if p.CoherencePenaltyCycles == 0 {
		p.CoherencePenaltyCycles = 20
	}
}

// Validate checks the params are runnable (after ApplyDefaults).
func (p *MulticoreParams) Validate() error {
	if _, err := cpusim.ConfigByName(p.Config); err != nil {
		return err
	}
	if _, err := modeByName(p.Mode); err != nil {
		return err
	}
	if _, ok := trace.ByName(p.Bench); !ok {
		return fmt.Errorf("expers: unknown benchmark %q (known: %v)", p.Bench, trace.Names())
	}
	if p.Cores < 1 {
		return fmt.Errorf("expers: multicore job needs cores >= 1")
	}
	if p.InstrPerCore == 0 {
		return fmt.Errorf("expers: multicore job needs instr_per_core > 0")
	}
	if p.SharedFrac < 0 || p.SharedFrac > 1 {
		return fmt.Errorf("expers: shared_frac %v outside [0, 1]", p.SharedFrac)
	}
	return nil
}

// MulticoreOutput is the deterministic record of one "multicore" job.
type MulticoreOutput struct {
	Config                 string  `json:"config"`
	Mode                   string  `json:"mode"`
	Cores                  int     `json:"cores"`
	GlobalCycles           uint64  `json:"global_cycles"`
	L2Accesses             uint64  `json:"l2_accesses"`
	L2Misses               uint64  `json:"l2_misses"`
	CoherenceInvalidations uint64  `json:"coherence_invalidations"`
	L2Transitions          int     `json:"l2_transitions"`
	L2EnergyJ              float64 `json:"l2_energy_j"`
	TotalCacheEnergyJ      float64 `json:"total_cache_energy_j"`
}

// ResourceCounts implements runner.ResourceCounter (writebacks are not in
// this output schema; fig4-cell jobs return cpusim.Result, which
// carries the full counts).
func (o MulticoreOutput) ResourceCounts() (transitions int, writebacks uint64) {
	return o.L2Transitions, 0
}

// EnergyJ implements runner.ResourceCounter.
func (o MulticoreOutput) EnergyJ() float64 { return o.TotalCacheEnergyJ }

func runMulticoreJob(ctx context.Context, seed uint64, params json.RawMessage) (any, error) {
	var p MulticoreParams
	if err := decodeParams(params, &p); err != nil {
		return nil, err
	}
	p.ApplyDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sysCfg, _ := cpusim.ConfigByName(p.Config)
	mode, _ := modeByName(p.Mode)
	w, _ := trace.ByName(p.Bench)
	cfg := multicore.Config{
		System:                 sysCfg,
		Cores:                  p.Cores,
		SharedBytes:            p.SharedBytes,
		SharedFrac:             p.SharedFrac,
		CoherencePenaltyCycles: p.CoherencePenaltyCycles,
	}
	if p.Seed != 0 {
		seed = p.Seed
	}
	r, err := multicore.RunContext(ctx, cfg, mode, w, p.WarmupInstr, p.InstrPerCore, seed)
	if err != nil {
		return nil, err
	}
	return MulticoreOutput{
		Config:                 sysCfg.Name,
		Mode:                   r.Mode.String(),
		Cores:                  p.Cores,
		GlobalCycles:           r.GlobalCycles,
		L2Accesses:             r.L2.Accesses,
		L2Misses:               r.L2.Misses,
		CoherenceInvalidations: r.CoherenceInvalidations,
		L2Transitions:          r.L2Transitions,
		L2EnergyJ:              r.L2EnergyJ,
		TotalCacheEnergyJ:      r.TotalCacheEnergyJ,
	}, nil
}

// MinVDDParams parameterise one "minvdd" job: the analytical minimum
// operating voltage of a cache geometry at a yield target.
type MinVDDParams struct {
	SizeBytes  int     `json:"size_bytes"`
	Ways       int     `json:"ways"`
	BlockBytes int     `json:"block_bytes"`
	Yield      float64 `json:"yield"` // default 0.99
	VMin       float64 `json:"v_min"` // default 0.30
	VMax       float64 `json:"v_max"` // default 1.00
}

// ApplyDefaults fills the documented defaults: 99% yield over the
// [0.30 V, 1.00 V] search window.
func (p *MinVDDParams) ApplyDefaults() {
	if p.Yield == 0 {
		p.Yield = 0.99
	}
	if p.VMin == 0 {
		p.VMin = 0.30
	}
	if p.VMax == 0 {
		p.VMax = 1.00
	}
}

// Validate checks the geometry is well-formed (after ApplyDefaults).
func (p *MinVDDParams) Validate() error {
	if p.Ways <= 0 || p.BlockBytes <= 0 || p.SizeBytes <= 0 {
		return fmt.Errorf("expers: minvdd job needs positive size_bytes, ways, block_bytes")
	}
	if sets := p.SizeBytes / (p.BlockBytes * p.Ways); sets <= 0 {
		return fmt.Errorf("expers: minvdd geometry %d B / (%d B × %d ways) has no sets", p.SizeBytes, p.BlockBytes, p.Ways)
	}
	return nil
}

// MinVDDOutput is the deterministic record of one "minvdd" job.
type MinVDDOutput struct {
	SizeBytes  int     `json:"size_bytes"`
	Ways       int     `json:"ways"`
	BlockBytes int     `json:"block_bytes"`
	Yield      float64 `json:"yield"`
	// OK is false when no voltage in [v_min, v_max] meets the yield.
	OK     bool    `json:"ok"`
	MinVDD float64 `json:"min_vdd,omitempty"`
}

func runMinVDDJob(ctx context.Context, _ uint64, params json.RawMessage) (any, error) {
	var p MinVDDParams
	if err := decodeParams(params, &p); err != nil {
		return nil, err
	}
	p.ApplyDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m, err := faultModelFor(faultmodel.Geometry{
		Sets: p.SizeBytes / (p.BlockBytes * p.Ways), Ways: p.Ways, BlockBits: p.BlockBytes * 8,
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := MinVDDOutput{
		SizeBytes: p.SizeBytes, Ways: p.Ways, BlockBytes: p.BlockBytes, Yield: p.Yield,
	}
	out.MinVDD, out.OK = m.MinVDDForYield(p.Yield, p.VMin, p.VMax)
	if !out.OK {
		out.MinVDD = 0
	}
	return out, nil
}

// MechMinVDDParams parameterise one "mechminvdd" job: the analytical
// summary of one registered fault-tolerance mechanism on a Table-2
// cache organisation.
type MechMinVDDParams struct {
	// Org selects the cache organisation: "l1a" (default), "l2a",
	// "l1b" or "l2b".
	Org string `json:"org,omitempty"`
	// Mechanism names a registry entry (internal/mechanism).
	Mechanism string `json:"mechanism"`
	// MechVersion pins the mechanism model version the result was
	// computed under. It is filled from the registry by ApplyDefaults
	// and participates in the content-addressed cache key, so bumping a
	// registered Version invalidates every stored cell of that
	// mechanism instead of silently serving stale numbers.
	MechVersion string `json:"mech_version,omitempty"`
	// NLowVDDs is the number of low-voltage levels fault-map-carrying
	// mechanisms pay for (default 2: the paper's three-level ladder).
	NLowVDDs int     `json:"n_low_vdds,omitempty"`
	Yield    float64 `json:"yield,omitempty"` // default 0.99
	VMin     float64 `json:"v_min,omitempty"` // default 0.30
	VMax     float64 `json:"v_max,omitempty"` // default 1.00
}

// ApplyDefaults fills the documented defaults and pins MechVersion to
// the registered version when the spec left it open.
func (p *MechMinVDDParams) ApplyDefaults() {
	if p.Org == "" {
		p.Org = "l1a"
	}
	if p.Mechanism == "" {
		p.Mechanism = "proposed"
	}
	if p.NLowVDDs == 0 {
		p.NLowVDDs = 2
	}
	if p.Yield == 0 {
		p.Yield = 0.99
	}
	if p.VMin == 0 {
		p.VMin = VLo
	}
	if p.VMax == 0 {
		p.VMax = VHi
	}
	if p.MechVersion == "" {
		if d, ok := mechanism.ByName(p.Mechanism); ok {
			p.MechVersion = d.Version
		}
	}
}

// Validate checks the params name a known organisation and mechanism
// and pin the mechanism version currently registered (after
// ApplyDefaults).
func (p *MechMinVDDParams) Validate() error {
	if _, err := OrgByName(p.Org); err != nil {
		return err
	}
	d, ok := mechanism.ByName(p.Mechanism)
	if !ok {
		return fmt.Errorf("expers: unknown mechanism %q (known: %v)", p.Mechanism, mechanism.Names())
	}
	if p.MechVersion != d.Version {
		return fmt.Errorf("expers: mechanism %q is version %s, params pin %s", p.Mechanism, d.Version, p.MechVersion)
	}
	if p.NLowVDDs < 1 {
		return fmt.Errorf("expers: mechminvdd job needs n_low_vdds >= 1")
	}
	if p.Yield <= 0 || p.Yield > 1 {
		return fmt.Errorf("expers: mechminvdd yield %v outside (0, 1]", p.Yield)
	}
	return nil
}

// MechMinVDDOutput is the deterministic record of one "mechminvdd" job.
type MechMinVDDOutput struct {
	Mechanism   string  `json:"mechanism"`
	Label       string  `json:"label"`
	MechVersion string  `json:"mech_version"`
	Org         string  `json:"org"`
	Yield       float64 `json:"yield"`
	// OK is false when no voltage in [v_min, v_max] meets the yield.
	OK     bool    `json:"ok"`
	MinVDD float64 `json:"min_vdd,omitempty"`
	// CapacityAtMin / StaticPowerAtMinW describe the operating point at
	// MinVDD (static power on the org's shared baseline model).
	CapacityAtMin     float64 `json:"capacity_at_min,omitempty"`
	StaticPowerAtMinW float64 `json:"static_power_at_min_w,omitempty"`
	AreaOverheadFrac  float64 `json:"area_overhead_frac"`
}

func runMechMinVDDJob(ctx context.Context, _ uint64, params json.RawMessage) (any, error) {
	var p MechMinVDDParams
	if err := decodeParams(params, &p); err != nil {
		return nil, err
	}
	p.ApplyDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	org, _ := OrgByName(p.Org)
	d, _ := mechanism.ByName(p.Mechanism)
	cs, err := NewCacheSetup(org, p.NLowVDDs+1)
	if err != nil {
		return nil, err
	}
	m, err := mechanismFor(org, p.NLowVDDs, d)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := MechMinVDDOutput{
		Mechanism: d.Name, Label: d.Label, MechVersion: d.Version,
		Org: org.Name, Yield: p.Yield,
		AreaOverheadFrac: m.AreaOverhead().Fraction,
	}
	out.MinVDD, out.OK = m.MinVDDForYield(p.Yield, p.VMin, p.VMax)
	if out.OK {
		out.CapacityAtMin = m.EffectiveCapacity(out.MinVDD)
		out.StaticPowerAtMinW = m.StaticPower(cs.CM, out.MinVDD)
	} else {
		out.MinVDD = 0
	}
	return out, nil
}

// VDDLevelsParams parameterise one "vddlevels" job: fault-map cost and
// SPCS-point static power for an N-level voltage ladder on the Config A
// L1 organisation.
type VDDLevelsParams struct {
	Levels int `json:"levels"`
}

// VDDLevelsOutput is the deterministic record of one "vddlevels" job.
type VDDLevelsOutput struct {
	Levels         int     `json:"levels"`
	FMBitsPerBlock int     `json:"fm_bits_per_block"`
	StaticPowerW   float64 `json:"static_power_w"`
}

func runVDDLevelsJob(ctx context.Context, _ uint64, params json.RawMessage) (any, error) {
	var p VDDLevelsParams
	if err := decodeParams(params, &p); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cs, err := NewCacheSetup(L1ConfigA(), p.Levels)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v2, ok := cs.FM.MinVDDForCapacity(0.99, 0.99, 0.30, 1.00)
	if !ok {
		return nil, fmt.Errorf("expers: no SPCS point for %d levels", p.Levels)
	}
	pw := cs.CMPCS.StaticPower(v2, cs.FM.ExpectedCapacity(v2))
	return VDDLevelsOutput{
		Levels:         p.Levels,
		FMBitsPerBlock: cs.CMPCS.FMBitsPerBlock,
		StaticPowerW:   pw.TotalW,
	}, nil
}

// VDDLevelsParams has no optional fields; ApplyDefaults exists so every
// campaign kind's parameter type satisfies the same defaulting shape.
func (p *VDDLevelsParams) ApplyDefaults() {}

// Validate checks the level count is usable.
func (p *VDDLevelsParams) Validate() error {
	if p.Levels < 1 {
		return fmt.Errorf("expers: vddlevels job needs levels >= 1")
	}
	return nil
}

// CellsParams parameterise one "cells" job: the bit-cell design
// comparison (Sec. 2). The study is fully determined by the analytical
// models, so there are no knobs yet; the empty document is valid.
type CellsParams struct{}

// ApplyDefaults fills the documented defaults (none yet).
func (p *CellsParams) ApplyDefaults() {}

// Validate accepts the (knobless) document.
func (p *CellsParams) Validate() error { return nil }

func runCellsJob(ctx context.Context, _ uint64, params json.RawMessage) (any, error) {
	var p CellsParams
	if err := decodeParams(params, &p); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rows, _, err := CellComparison()
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// LeakageParams parameterise one "leakage" job: the drowsy/decay/SPCS
// leakage-technique comparison on a short simulation window.
type LeakageParams struct {
	// SimInstr defaults to 4,000,000 (the historic pcs-sweep default).
	SimInstr uint64 `json:"sim_instr,omitempty"`
	// Seed pins the run when non-zero; zero uses the derived job seed.
	Seed uint64 `json:"seed,omitempty"`
}

// ApplyDefaults fills the documented defaults.
func (p *LeakageParams) ApplyDefaults() {
	if p.SimInstr == 0 {
		p.SimInstr = 4_000_000
	}
}

// Validate checks the window is non-empty (after ApplyDefaults).
func (p *LeakageParams) Validate() error {
	if p.SimInstr == 0 {
		return fmt.Errorf("expers: leakage job needs sim_instr > 0")
	}
	return nil
}

func runLeakageJob(ctx context.Context, seed uint64, params json.RawMessage) (any, error) {
	var p LeakageParams
	if err := decodeParams(params, &p); err != nil {
		return nil, err
	}
	p.ApplyDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Seed != 0 {
		seed = p.Seed
	}
	rows, _, err := leakageComparison(ctx, arenaFromContext(ctx), p.SimInstr, seed)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// decodeParams strictly decodes a kind's parameter document, rejecting
// unknown fields so spec typos fail instead of silently running the
// default experiment, and anything but white space after the one JSON
// value, which would otherwise go unread.
func decodeParams(raw json.RawMessage, v any) error {
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("expers: bad params: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("expers: bad params: trailing data after the JSON value")
	}
	return nil
}
