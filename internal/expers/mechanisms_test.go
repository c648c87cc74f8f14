package expers

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/mechanism"
)

// TestRegistryCompleteness is the drift gate for the mechanism plugin
// layer: every registered mechanism must surface in the Fig. 3
// comparison surfaces its capability flags promise — a curve or step
// series in Fig. 3a, a yield curve in Fig. 3d, a min-VDD row, and an
// area-overhead row. A mechanism registered without showing up here is
// dead weight; one showing up without registration is impossible.
func TestRegistryCompleteness(t *testing.T) {
	org := L1ConfigA()
	all := mechanism.All()
	names := mechanism.Names()
	if len(all) != len(names) {
		t.Fatalf("All() has %d entries, Names() has %d", len(all), len(names))
	}

	sel, t3a, err := Fig3aMechs(org, 2, names)
	if err != nil {
		t.Fatalf("Fig3aMechs(all): %v", err)
	}
	curves3d, _, err := Fig3dMechs(org, names)
	if err != nil {
		t.Fatalf("Fig3dMechs(all): %v", err)
	}
	minRows, mt, err := MinVDDMechs(org, names)
	if err != nil {
		t.Fatalf("MinVDDMechs(all): %v", err)
	}
	areaRows, _, err := MechanismAreas(org, names)
	if err != nil {
		t.Fatalf("MechanismAreas(all): %v", err)
	}

	stepNames := make(map[string]bool, len(sel.Steps))
	for _, st := range sel.Steps {
		stepNames[st.Name] = true
	}
	yieldNames := make(map[string]bool, len(curves3d))
	for _, cv := range curves3d {
		yieldNames[cv.Name] = true
	}
	minLabels := make(map[string]bool, len(minRows))
	for _, r := range minRows {
		minLabels[r.Scheme] = true
	}
	areaNames := make(map[string]bool, len(areaRows))
	for _, r := range areaRows {
		areaNames[r.Name] = true
	}

	for _, d := range all {
		if d.Scales {
			if sel.Curve(d.Name) == nil {
				t.Errorf("%s: Scales but no Fig. 3a/3b curve", d.Name)
			}
			if !headerContains(t3a.Headers, d.ShortLabel+" cap") {
				t.Errorf("%s: no %q column in the Fig. 3a table", d.Name, d.ShortLabel+" cap")
			}
		}
		if d.Steps && !stepNames[d.Name] {
			t.Errorf("%s: Steps but no Fig. 3a step series", d.Name)
		}
		if d.Yields {
			if !yieldNames[d.Name] {
				t.Errorf("%s: Yields but no Fig. 3d curve", d.Name)
			}
			if !minLabels[d.Label] {
				t.Errorf("%s: Yields but no min-VDD row (labels: %v)", d.Name, mt.Rows)
			}
		}
		if !areaNames[d.Name] {
			t.Errorf("%s: no area-overhead row", d.Name)
		}
	}
}

func headerContains(headers []string, want string) bool {
	for _, h := range headers {
		if h == want {
			return true
		}
	}
	return false
}

// TestMechStudyCoversRegistry pins the sweep layer to the registry:
// "mechs" is a selectable study, and with no explicit selection it runs
// one min-VDD job per registered mechanism with the version pinned.
func TestMechStudyCoversRegistry(t *testing.T) {
	if !containsString(StudyNames(), "mechs") {
		t.Fatalf("StudyNames() = %v misses \"mechs\"", StudyNames())
	}
	st, err := MechStudy(nil)
	if err != nil {
		t.Fatalf("MechStudy(nil): %v", err)
	}
	names := mechanism.Names()
	if len(st.Jobs) != len(names) {
		t.Fatalf("MechStudy(nil) has %d jobs, want one per registered mechanism (%d)", len(st.Jobs), len(names))
	}
	for i, job := range st.Jobs {
		if job.Kind != "mechminvdd" {
			t.Fatalf("job %d kind = %q, want mechminvdd", i, job.Kind)
		}
		var p MechMinVDDParams
		if err := json.Unmarshal(job.Params, &p); err != nil {
			t.Fatalf("job %d params: %v", i, err)
		}
		if p.Mechanism != names[i] {
			t.Errorf("job %d runs %q, want %q (registry order)", i, p.Mechanism, names[i])
		}
		d, _ := mechanism.ByName(p.Mechanism)
		if p.MechVersion != d.Version {
			t.Errorf("job %d pins version %q, want %q", i, p.MechVersion, d.Version)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("job %d params invalid: %v", i, err)
		}
	}
	if _, err := MechStudy([]string{"nosuch"}); err == nil {
		t.Error("MechStudy(nosuch) did not fail")
	}
}

// TestDefaultSetAddsNoTables pins that the paper's default set
// contributes no scheme-specific extra tables, so the golden fig3d
// section of `pcs analytical` cannot grow.
func TestDefaultSetAddsNoTables(t *testing.T) {
	for _, names := range [][]string{nil, mechanism.DefaultNames()} {
		extra, err := MechanismTables(L1ConfigA(), names)
		if err != nil {
			t.Fatalf("MechanismTables(%v): %v", names, err)
		}
		if len(extra) != 0 {
			t.Errorf("MechanismTables(%v) has %d extra tables, want 0 (golden output would change)", names, len(extra))
		}
	}
}

// TestDigestKeyedMemos checks that the parameterised table builders
// memoize on the value digest, not the call site: two distinctly
// constructed but equal inputs must return the identical table.
func TestDigestKeyedMemos(t *testing.T) {
	g1 := CellGeometry()
	g2 := CellGeometry()
	_, t1, err := CellComparisonFor(g1)
	if err != nil {
		t.Fatalf("CellComparisonFor: %v", err)
	}
	_, t2, err := CellComparisonFor(g2)
	if err != nil {
		t.Fatalf("CellComparisonFor: %v", err)
	}
	if t1 != t2 {
		t.Error("CellComparisonFor returned distinct tables for equal geometries")
	}
	_, t3, err := CellComparison()
	if err != nil {
		t.Fatalf("CellComparison: %v", err)
	}
	if t1 != t3 {
		t.Error("CellComparison() misses the CellComparisonFor memo")
	}

	_, a1, err := AreaOverheadsFor(AllOrgs())
	if err != nil {
		t.Fatalf("AreaOverheadsFor: %v", err)
	}
	_, a2, err := AreaOverheads()
	if err != nil {
		t.Fatalf("AreaOverheads: %v", err)
	}
	if a1 != a2 {
		t.Error("AreaOverheads() misses the AreaOverheadsFor memo")
	}
	// A different org list is a different key, not a collision.
	_, a3, err := AreaOverheadsFor(AllOrgs()[:1])
	if err != nil {
		t.Fatalf("AreaOverheadsFor(l1a): %v", err)
	}
	if a3 == a1 {
		t.Error("AreaOverheadsFor collides across different org lists")
	}
}

// TestMechMinVDDParamsValidate pins the spec-validation errors for the
// mechminvdd campaign kind.
func TestMechMinVDDParamsValidate(t *testing.T) {
	good := MechMinVDDParams{}
	good.ApplyDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("defaulted params invalid: %v", err)
	}
	if good.Mechanism == "" || good.MechVersion == "" {
		t.Fatalf("ApplyDefaults left mechanism/version empty: %+v", good)
	}

	bad := good
	bad.Mechanism = "nosuch"
	bad.MechVersion = ""
	bad.ApplyDefaults()
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "unknown mechanism") {
		t.Errorf("unknown mechanism error = %v", err)
	}

	stale := good
	stale.MechVersion = "0-stale"
	if err := stale.Validate(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version-pin mismatch error = %v", err)
	}
}

func containsString(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
