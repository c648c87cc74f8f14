package report

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/obs/tracez"
)

// CellUsage is one job's resource attribution, decoded from its job
// span: the row type behind `pcs report -top` and `pcs top`. The JSON
// names are the job span's attribute names.
type CellUsage struct {
	Index  int    `json:"job"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Status string `json:"status"` // done / failed / cancelled
	// WallMS is the job span's duration.
	WallMS float64 `json:"-"`
	CPUMS  float64 `json:"cpu_ms"`
	// Cache is the resultstore probe's outcome: "hit", "miss", or ""
	// when the job did not consult the store.
	Cache string `json:"cache"`
	// Transitions/Writebacks are the simulator-side counts.
	Transitions int    `json:"transitions"`
	Writebacks  uint64 `json:"writebacks"`
	// EnergyJ is the cell's simulated total cache energy, when its
	// output reports one.
	EnergyJ float64 `json:"energy_j"`
}

// CellsFromSpans assembles per-cell usage from a campaign's spans, one
// row per job span, in job-index order. A job span is written when its
// job ends, so the rows are the jobs that reached a terminal state.
func CellsFromSpans(spans []tracez.Span) ([]CellUsage, error) {
	var cells []CellUsage
	for i := range spans {
		sp := &spans[i]
		if sp.Name != "job" {
			continue
		}
		c := CellUsage{WallMS: float64(sp.DurNS) / 1e6}
		if err := json.Unmarshal(sp.Attrs, &c); err != nil {
			return nil, fmt.Errorf("report: job span %s: %w", sp.ID, err)
		}
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Index < cells[j].Index })
	return cells, nil
}

// SortCells orders cells by the named key, descending: "cpu" (measured
// CPU time, wall time breaking ties — off Linux CPU time is zero and
// the order degrades to wall), "wall", or "energy".
func SortCells(cells []CellUsage, key string) error {
	var less func(a, b CellUsage) bool
	switch key {
	case "cpu":
		less = func(a, b CellUsage) bool {
			if a.CPUMS != b.CPUMS {
				return a.CPUMS > b.CPUMS
			}
			return a.WallMS > b.WallMS
		}
	case "wall":
		less = func(a, b CellUsage) bool { return a.WallMS > b.WallMS }
	case "energy":
		less = func(a, b CellUsage) bool { return a.EnergyJ > b.EnergyJ }
	default:
		return fmt.Errorf("report: unknown sort key %q (cpu, wall, energy)", key)
	}
	sort.SliceStable(cells, func(i, j int) bool { return less(cells[i], cells[j]) })
	return nil
}

// cellLabel names a cell for display: the spec name when set, else
// kind#index.
func cellLabel(c CellUsage) string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("%s#%d", c.Kind, c.Index)
}

// cacheMark renders the cell's resultstore provenance.
func cacheMark(c CellUsage) string {
	if c.Cache == "" {
		return "-"
	}
	return c.Cache
}

// TopCellsTable renders the first n cells (all if n <= 0) of an
// already-sorted usage list.
func TopCellsTable(cells []CellUsage, n int) *Table {
	if n > 0 && n < len(cells) {
		cells = cells[:n]
	}
	t := NewTable("Top cells by resource usage",
		"cell", "kind", "status", "wall ms", "cpu ms", "cache", "transitions", "writebacks", "energy mJ")
	for _, c := range cells {
		t.AddRow(cellLabel(c), c.Kind, c.Status, c.WallMS, c.CPUMS,
			cacheMark(c), c.Transitions, c.Writebacks, c.EnergyJ*1e3)
	}
	return t
}

// KindSummaryTable aggregates usage per kind: where the campaign's
// compute went, at one row per job kind.
func KindSummaryTable(cells []CellUsage) *Table {
	type agg struct {
		kind         string
		jobs         int
		wall, cpu    float64
		hits, misses int
		energyJ      float64
	}
	byKind := make(map[string]*agg)
	var order []string
	for _, c := range cells {
		a := byKind[c.Kind]
		if a == nil {
			a = &agg{kind: c.Kind}
			byKind[c.Kind] = a
			order = append(order, c.Kind)
		}
		a.jobs++
		a.wall += c.WallMS
		a.cpu += c.CPUMS
		switch c.Cache {
		case "hit":
			a.hits++
		case "miss":
			a.misses++
		}
		a.energyJ += c.EnergyJ
	}
	sort.Slice(order, func(i, j int) bool {
		return byKind[order[i]].cpu > byKind[order[j]].cpu
	})
	t := NewTable("Per-kind totals",
		"kind", "jobs", "wall ms", "cpu ms", "hits", "misses", "energy mJ")
	for _, k := range order {
		a := byKind[k]
		t.AddRow(a.kind, a.jobs, a.wall, a.cpu, a.hits, a.misses, a.energyJ*1e3)
	}
	return t
}
