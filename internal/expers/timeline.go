package expers

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/obs/tracez"
	"repro/internal/report"
)

// This file reads what a job's spans record of its DPCS policy — the
// dpcs.decision and dpcs.transition instants under the job span, and
// the measured window on its sim.measure span — and renders it as
// VDD-vs-time views: the raw transition trajectory and the per-level
// residency over the measured window. The residency replay is the
// piecewise-constant reconstruction cpusim's reconciliation test
// performs against Controller.TimeAtLevelCycles.

// Transition is one dpcs.transition instant: one controller voltage
// transition (Listing 2).
type Transition struct {
	Cache         string  `json:"cache"`
	Cycle         uint64  `json:"cycle"`
	From          int     `json:"from"`
	To            int     `json:"to"`
	FromVDD       float64 `json:"from_vdd"`
	ToVDD         float64 `json:"to_vdd"`
	Writebacks    int     `json:"writebacks"`
	Invalidations int     `json:"invalidations"`
	PenaltyCycles uint64  `json:"penalty_cycles"`
}

// PolicyRun is one job's record of what its DPCS policy did.
type PolicyRun struct {
	// Job is the job span's name attribute (e.g. "B/mcf.s/DPCS").
	Job string
	// Decisions counts the job's dpcs.decision instants.
	Decisions int
	// Transitions are the job's dpcs.transition instants, warm-up
	// included, in the order they were recorded.
	Transitions []Transition
	// StartCycle and EndCycle bound the measured window; ClockHz
	// converts its cycles to time.
	StartCycle, EndCycle uint64
	ClockHz              float64
}

// PolicyRuns reads the policy record of every job whose policy made
// decisions (the DPCS cells) out of a campaign's spans, in job-index
// order.
func PolicyRuns(spans []tracez.Span) ([]PolicyRun, error) {
	byParent := make(map[string]*PolicyRun)
	run := func(parent string) *PolicyRun {
		r := byParent[parent]
		if r == nil {
			r = &PolicyRun{}
			byParent[parent] = r
		}
		return r
	}
	type job struct {
		index int
		id    string
		name  string
	}
	var jobs []job
	for i := range spans {
		sp := &spans[i]
		var err error
		switch sp.Name {
		case "dpcs.decision":
			run(sp.Parent).Decisions++
		case "dpcs.transition":
			var t Transition
			if err = json.Unmarshal(sp.Attrs, &t); err == nil {
				r := run(sp.Parent)
				r.Transitions = append(r.Transitions, t)
			}
		case "sim.measure":
			var m struct {
				Start uint64  `json:"start_cycle"`
				End   uint64  `json:"end_cycle"`
				Clock float64 `json:"clock_hz"`
			}
			if err = json.Unmarshal(sp.Attrs, &m); err == nil {
				r := run(sp.Parent)
				r.StartCycle, r.EndCycle, r.ClockHz = m.Start, m.End, m.Clock
			}
		case "job":
			var a struct {
				Index int    `json:"job"`
				Name  string `json:"name"`
			}
			if err = json.Unmarshal(sp.Attrs, &a); err == nil {
				jobs = append(jobs, job{a.Index, sp.ID, a.Name})
			}
		}
		if err != nil {
			return nil, fmt.Errorf("expers: %s span %s: %w", sp.Name, sp.ID, err)
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].index < jobs[j].index })
	var out []PolicyRun
	for _, j := range jobs {
		if r := byParent[j.id]; r != nil && r.Decisions > 0 {
			r.Job = j.name
			out = append(out, *r)
		}
	}
	return out, nil
}

// VDDResidency is the time one cache spent at one VDD level.
type VDDResidency struct {
	Cache  string  `json:"cache"`
	Level  int     `json:"level"`
	VDD    float64 `json:"vdd"`
	Cycles uint64  `json:"cycles"`
	// Frac is Cycles over the measured window's length.
	Frac float64 `json:"frac"`
}

// VDDResidencies replays a run's transitions into per-cache, per-level
// cycle residencies over its measured window [StartCycle, EndCycle). A
// cache with no transitions has an unknown (constant) voltage and is
// omitted. Results are ordered by cache name, then by descending level.
func VDDResidencies(run PolicyRun) []VDDResidency {
	type state struct {
		level    int
		vdd      float64
		since    uint64
		perLevel map[int]uint64
		levelVDD map[int]float64
	}
	// charge adds the part of [st.since, until) inside the window to
	// the cache's current level.
	charge := func(st *state, until uint64) {
		from, to := max(st.since, run.StartCycle), min(until, run.EndCycle)
		if to > from {
			st.perLevel[st.level] += to - from
		}
		st.levelVDD[st.level] = st.vdd
	}
	caches := map[string]*state{}
	var order []string
	for _, t := range run.Transitions {
		st, ok := caches[t.Cache]
		if !ok {
			st = &state{level: t.From, vdd: t.FromVDD, perLevel: map[int]uint64{}, levelVDD: map[int]float64{}}
			caches[t.Cache] = st
			order = append(order, t.Cache)
		}
		charge(st, t.Cycle)
		st.level, st.vdd, st.since = t.To, t.ToVDD, t.Cycle
	}
	sort.Strings(order)
	window := run.EndCycle - run.StartCycle
	var out []VDDResidency
	for _, name := range order {
		st := caches[name]
		charge(st, run.EndCycle)
		levels := make([]int, 0, len(st.perLevel))
		for l := range st.perLevel {
			levels = append(levels, l)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(levels)))
		for _, l := range levels {
			r := VDDResidency{Cache: name, Level: l, VDD: st.levelVDD[l], Cycles: st.perLevel[l]}
			if window > 0 {
				r.Frac = float64(r.Cycles) / float64(window)
			}
			out = append(out, r)
		}
	}
	return out
}

// policyTitle prefixes a view's title with the run's job name.
func policyTitle(run PolicyRun, title string) string {
	if run.Job == "" {
		return title
	}
	return run.Job + ": " + title
}

// VDDTrajectoryTable renders a run's transitions as a VDD-vs-time
// table, one row per voltage transition; maxRows > 0 truncates long
// trajectories (with a trailing row noting how many transitions were
// elided).
func VDDTrajectoryTable(run PolicyRun, maxRows int) *report.Table {
	t := report.NewTable(policyTitle(run, "DPCS VDD trajectory (voltage transitions vs time)"),
		"Time (ms)", "Cycle", "Cache", "Level", "VDD (V)", "WB", "Inv", "Penalty (cyc)")
	for i, tr := range run.Transitions {
		if maxRows > 0 && i == maxRows {
			t.AddRow(fmt.Sprintf("... %d more transitions", len(run.Transitions)-i), "", "", "", "", "", "", "")
			break
		}
		ms := 0.0
		if run.ClockHz > 0 {
			ms = float64(tr.Cycle) / run.ClockHz * 1e3
		}
		t.AddRow(
			fmt.Sprintf("%.3f", ms),
			tr.Cycle,
			tr.Cache,
			fmt.Sprintf("%d->%d", tr.From, tr.To),
			fmt.Sprintf("%.2f->%.2f", tr.FromVDD, tr.ToVDD),
			tr.Writebacks,
			tr.Invalidations,
			tr.PenaltyCycles,
		)
	}
	return t
}

// VDDResidencyTable renders VDDResidencies as a table.
func VDDResidencyTable(run PolicyRun) *report.Table {
	t := report.NewTable(policyTitle(run, "DPCS VDD residency (fraction of the measured window at each level)"),
		"Cache", "Level", "VDD (V)", "Cycles", "Residency %")
	for _, r := range VDDResidencies(run) {
		t.AddRow(r.Cache, r.Level, fmt.Sprintf("%.2f", r.VDD), r.Cycles,
			fmt.Sprintf("%.1f", r.Frac*100))
	}
	return t
}
