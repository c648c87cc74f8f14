package report

import (
	"strings"
	"testing"

	"repro/internal/obs/tracez"
)

// topcellsSpans is a small campaign's spans.jsonl: the campaign span,
// a DPCS phase span and three job spans, out of index order.
func topcellsSpans(t *testing.T) []tracez.Span {
	t.Helper()
	spans, err := tracez.ReadSpans(strings.NewReader(`{"trace":"t","span":"5","parent":"1","name":"sim.measure","start_unix_ns":10,"dur_ns":40000000}
{"trace":"t","span":"3","parent":"1","name":"job","start_unix_ns":1,"dur_ns":5000000,"attrs":{"job":1,"kind":"cpusim","name":"fast","status":"done","cpu_ms":4,"allocs":16384,"alloc_bytes":1048576,"cache":"hit","transitions":2,"writebacks":6}}
{"trace":"t","span":"2","parent":"1","name":"job","start_unix_ns":1,"dur_ns":50000000,"attrs":{"job":0,"kind":"cpusim","name":"slow","status":"done","cpu_ms":45,"allocs":131072,"alloc_bytes":8388608,"cache":"miss","stored_bytes":900,"transitions":7,"writebacks":21}}
{"trace":"t","span":"4","parent":"1","name":"job","start_unix_ns":1,"dur_ns":1000000,"attrs":{"job":2,"kind":"analytical","status":"failed","error":"boom","cpu_ms":1,"allocs":16,"alloc_bytes":1024,"cache":"miss"}}
{"trace":"t","span":"1","name":"campaign","start_unix_ns":0,"dur_ns":60000000,"attrs":{"campaign":"c","done":2,"failed":1}}
`))
	if err != nil {
		t.Fatal(err)
	}
	return spans
}

// cellsOf is CellsFromSpans that fails the test on a decode error.
func cellsOf(t *testing.T, spans []tracez.Span) []CellUsage {
	t.Helper()
	cells, err := CellsFromSpans(spans)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func TestCellsFromEventsAndSort(t *testing.T) {
	cells := cellsOf(t, topcellsSpans(t))
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(cells))
	}
	if c := cells[0]; c.WallMS != 50 || c.CPUMS != 45 || c.AllocBytes != 8<<20 || c.Cache != "miss" || c.Transitions != 7 || c.Writebacks != 21 {
		t.Errorf("cell 0 %+v", c)
	}
	// Index order from assembly.
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
	}
	if cells[2].Status != "failed" {
		t.Errorf("cell 2 status %q", cells[2].Status)
	}
	if err := SortCells(cells, "cpu"); err != nil {
		t.Fatal(err)
	}
	if cells[0].Name != "slow" || cells[1].Name != "fast" {
		t.Fatalf("cpu sort order: %q, %q", cells[0].Name, cells[1].Name)
	}
	if err := SortCells(cells, "allocs"); err != nil {
		t.Fatal(err)
	}
	if cells[0].Name != "slow" {
		t.Fatalf("allocs sort put %q first", cells[0].Name)
	}
	if err := SortCells(cells, "nope"); err == nil {
		t.Fatal("unknown sort key accepted")
	}
}

func TestAttachEnergyAndTables(t *testing.T) {
	cells := cellsOf(t, topcellsSpans(t))
	results := strings.Join([]string{
		`{"index":0,"status":"done","output":{"total_cache_energy_j":0.004}}`,
		`{"index":1,"status":"done","output":{"total_cache_energy_j":0.001}}`,
		`{"index":2,"status":"failed"}`,
	}, "\n")
	if err := AttachEnergy(cells, strings.NewReader(results)); err != nil {
		t.Fatal(err)
	}
	if cells[0].EnergyJ != 0.004 || cells[1].EnergyJ != 0.001 || cells[2].EnergyJ != 0 {
		t.Fatalf("energies %v %v %v", cells[0].EnergyJ, cells[1].EnergyJ, cells[2].EnergyJ)
	}
	if err := SortCells(cells, "energy"); err != nil {
		t.Fatal(err)
	}
	if cells[0].Name != "slow" {
		t.Fatalf("energy sort put %q first", cells[0].Name)
	}

	var out strings.Builder
	if err := TopCellsTable(cells, 2).Render(&out); err != nil {
		t.Fatal(err)
	}
	table := out.String()
	for _, want := range []string{"slow", "fast", "hit", "miss"} {
		if !strings.Contains(table, want) {
			t.Errorf("top table missing %q:\n%s", want, table)
		}
	}
	if strings.Contains(table, "analytical") {
		t.Errorf("top-2 table includes third cell:\n%s", table)
	}

	out.Reset()
	if err := KindSummaryTable(cells).Render(&out); err != nil {
		t.Fatal(err)
	}
	summary := out.String()
	if !strings.Contains(summary, "cpusim") || !strings.Contains(summary, "analytical") {
		t.Errorf("kind summary missing kinds:\n%s", summary)
	}
	// cpusim has the larger CPU total, so it leads.
	if strings.Index(summary, "cpusim") > strings.Index(summary, "analytical") {
		t.Errorf("kind summary not CPU-ordered:\n%s", summary)
	}
}

// TestCellsWithoutResources covers job spans that carry only their
// identity: the span's duration still populates wall time, and a span
// whose attributes do not decode is an error.
func TestCellsWithoutResources(t *testing.T) {
	cells := cellsOf(t, []tracez.Span{
		{Name: "job", DurNS: 12_500_000, Attrs: []byte(`{"job":0,"kind":"old","status":"done"}`)},
	})
	if len(cells) != 1 || cells[0].WallMS != 12.5 || cells[0].CPUMS != 0 || cells[0].Cache != "" {
		t.Fatalf("cells %+v", cells)
	}
	if _, err := CellsFromSpans([]tracez.Span{{Name: "job", Attrs: []byte(`{"job":"zero"}`)}}); err == nil {
		t.Fatal("a job span with a string job index was accepted")
	}
}
