// Package expers implements one function per paper table/figure, shared
// by the cmd harnesses, the examples and the root benchmark suite. Each
// function returns structured data plus a ready-to-print report.Table so
// the same code regenerates the paper's rows/series everywhere.
package expers

import (
	"fmt"
	"math"

	"repro/internal/cacti"
	"repro/internal/device"
	"repro/internal/faultmodel"
	"repro/internal/report"
	"repro/internal/sram"
)

// Analytical voltage sweep range (V): the studied window of the paper.
const (
	VLo = 0.30
	VHi = 1.00
)

// CacheSetup bundles the models for one cache organisation.
type CacheSetup struct {
	Org   cacti.Org
	Tech  device.Tech
	CM    *cacti.Model // baseline (no PCS overheads)
	CMPCS *cacti.Model // with fault map + power gates
	BER   sram.BERModel
	FM    *faultmodel.Model
}

// newCacheSetup builds the model stack for an organisation, using
// nLevels allowed VDD levels for fault-map sizing (3 in the paper).
// NewCacheSetup (memos.go) is the memoizing public entry point.
func newCacheSetup(org cacti.Org, nLevels int) (*CacheSetup, error) {
	tech := device.Tech45SOI()
	cm, err := cacti.New(org, tech, cacti.DefaultParams())
	if err != nil {
		return nil, err
	}
	ber := sram.NewWangCalhounBER()
	geom := faultmodel.Geometry{
		Sets:      org.Sets(),
		Ways:      org.Assoc,
		BlockBits: org.BlockBits(),
	}
	fm, err := faultmodel.New(geom, ber)
	if err != nil {
		return nil, err
	}
	fmBits := 0
	for 1<<fmBits < nLevels+1 {
		fmBits++
	}
	return &CacheSetup{
		Org:   org,
		Tech:  tech,
		CM:    cm,
		CMPCS: cm.WithPCS(fmBits),
		BER:   ber,
		FM:    fm,
	}, nil
}

// L1ConfigA returns the paper's Fig. 3 subject: the Config A L1 cache.
func L1ConfigA() cacti.Org {
	return cacti.Org{Name: "L1-A", SizeBytes: 64 << 10, Assoc: 4, BlockBytes: 64, AddrBits: 40}
}

// L2ConfigA returns the Config A L2 organisation.
func L2ConfigA() cacti.Org {
	return cacti.Org{Name: "L2-A", SizeBytes: 2 << 20, Assoc: 8, BlockBytes: 64, AddrBits: 40, SerialTagData: true}
}

// L1ConfigB and L2ConfigB return the Config B organisations.
func L1ConfigB() cacti.Org {
	return cacti.Org{Name: "L1-B", SizeBytes: 256 << 10, Assoc: 8, BlockBytes: 64, AddrBits: 40}
}

// L2ConfigB returns the Config B L2 organisation.
func L2ConfigB() cacti.Org {
	return cacti.Org{Name: "L2-B", SizeBytes: 8 << 20, Assoc: 16, BlockBytes: 64, AddrBits: 40, SerialTagData: true}
}

// AllOrgs returns the four cache organisations of Table 2.
func AllOrgs() []cacti.Org {
	return []cacti.Org{L1ConfigA(), L2ConfigA(), L1ConfigB(), L2ConfigB()}
}

// --- FIG2: SRAM bit error rate vs VDD ---

// Fig2Point is one sample of the BER curve.
type Fig2Point struct {
	VDD float64
	BER float64
}

// fig2 computes Fig. 2 (see the memoizing Fig2 wrapper in memos.go).
func fig2() ([]Fig2Point, *report.Table) {
	ber := sram.NewWangCalhounBER()
	var pts []Fig2Point
	t := report.NewTable("Fig. 2 — SRAM bit error rate vs VDD (Wang–Calhoun-style model)",
		"VDD (V)", "BER")
	for _, v := range faultmodel.Grid(VLo, VHi) {
		p := Fig2Point{VDD: v, BER: ber.BER(v)}
		pts = append(pts, p)
		t.AddRow(fmt.Sprintf("%.2f", v), fmt.Sprintf("%.3e", p.BER))
	}
	return pts, t
}

// --- FIG3A: total static power vs effective capacity ---

// PowerAtCapacity interpolates a scheme's static power at a target
// effective capacity from its (capacity, power) curve — a MechCurve's
// Capacity/PowerW or a MechStepCurve's Caps/Watts. Curves are monotone
// in voltage; we scan for the bracketing pair.
func PowerAtCapacity(caps, watts []float64, target float64) (float64, bool) {
	best := math.Inf(1)
	found := false
	// Among all curve segments crossing the target capacity, take the
	// lowest interpolated power (schemes may hit a capacity at several
	// voltages; the operating point of interest is the cheapest).
	for i := 1; i < len(caps); i++ {
		lo, hi := caps[i-1], caps[i]
		if (lo-target)*(hi-target) > 0 {
			continue
		}
		var p float64
		if hi == lo {
			p = math.Min(watts[i-1], watts[i])
		} else {
			f := (target - lo) / (hi - lo)
			p = watts[i-1] + f*(watts[i]-watts[i-1])
		}
		if p < best {
			best = p
			found = true
		}
	}
	return best, found
}

// Fig3aGapAt99 returns the proposed scheme's static-power advantage over
// FFT-Cache at the 99 % effective capacity point (the paper: 28.2 % with
// three VDD levels, 17.8 % with two).
func Fig3aGapAt99(org cacti.Org, nLowVDDs int) (gapFrac float64, err error) {
	sel, _, err := Fig3aMechs(org, nLowVDDs, nil)
	if err != nil {
		return 0, err
	}
	prop, fft := sel.Curve("proposed"), sel.Curve("fftcache")
	if prop == nil || fft == nil {
		return 0, fmt.Errorf("expers: default mechanism set misses proposed/fftcache")
	}
	pp, ok1 := PowerAtCapacity(prop.Capacity, prop.PowerW, 0.99)
	pf, ok2 := PowerAtCapacity(fft.Capacity, fft.PowerW, 0.99)
	if !ok1 || !ok2 {
		return 0, fmt.Errorf("expers: 99%% capacity point not on curve")
	}
	return 1 - pp/pf, nil
}

// --- FIG3C: leakage breakdown vs VDD ---

// Fig3cRow is one voltage sample of the leakage decomposition.
type Fig3cRow struct {
	VDD             float64
	DataNoPeriphW   float64 // data array cells only
	DataWithPeriphW float64 // data cells + data periphery
	TagW            float64
	TotalW          float64
}

// fig3c computes Fig. 3c (see the memoizing Fig3c wrapper in memos.go).
func fig3c(org cacti.Org) ([]Fig3cRow, *report.Table, error) {
	cs, err := NewCacheSetup(org, 3)
	if err != nil {
		return nil, nil, err
	}
	var rows []Fig3cRow
	t := report.NewTable(
		fmt.Sprintf("Fig. 3c — leakage breakdown vs VDD (%s)", org.Name),
		"VDD (V)", "Data (no periph) mW", "Data mW", "Tag mW", "Total mW")
	for _, v := range faultmodel.Grid(VLo, VHi) {
		capP := cs.FM.ExpectedCapacity(v)
		p := cs.CMPCS.StaticPower(v, capP)
		r := Fig3cRow{
			VDD:             v,
			DataNoPeriphW:   p.DataCellsW,
			DataWithPeriphW: p.DataCellsW + p.DataPeripheryW,
			TagW:            p.TagW,
			TotalW:          p.TotalW,
		}
		rows = append(rows, r)
		t.AddRow(fmt.Sprintf("%.2f", v),
			fmt.Sprintf("%.3f", r.DataNoPeriphW*1e3),
			fmt.Sprintf("%.3f", r.DataWithPeriphW*1e3),
			fmt.Sprintf("%.3f", r.TagW*1e3),
			fmt.Sprintf("%.3f", r.TotalW*1e3))
	}
	return rows, t, nil
}

// --- TAB-AREA: area overheads ---

// AreaRow reports one organisation's PCS area overhead.
type AreaRow struct {
	Org              string
	BaselineMM2      float64
	FaultMapMM2      float64
	PowerGateMM2     float64
	OverheadFraction float64
}

// areaOverheads computes the area-overhead table over a set of
// organisations (see the memoizing AreaOverheads/AreaOverheadsFor
// wrappers in memos.go).
func areaOverheads(orgs []cacti.Org) ([]AreaRow, *report.Table, error) {
	var rows []AreaRow
	t := report.NewTable("Area overheads of the PCS mechanism (Sec. 4.2)",
		"Cache", "Baseline mm²", "Fault map mm²", "Power gates mm²", "Overhead %")
	for _, org := range orgs {
		cs, err := NewCacheSetup(org, 3)
		if err != nil {
			return nil, nil, err
		}
		a := cs.CMPCS.Area()
		r := AreaRow{
			Org:              org.Name,
			BaselineMM2:      a.DataMM2 + a.TagMM2,
			FaultMapMM2:      a.FaultMapMM2,
			PowerGateMM2:     a.PowerGateMM2,
			OverheadFraction: a.OverheadFraction(),
		}
		rows = append(rows, r)
		t.AddRow(org.Name, fmt.Sprintf("%.3f", r.BaselineMM2),
			fmt.Sprintf("%.4f", r.FaultMapMM2), fmt.Sprintf("%.4f", r.PowerGateMM2),
			fmt.Sprintf("%.2f", r.OverheadFraction*100))
	}
	return rows, t, nil
}

// --- TAB-MINVDD: the design-time voltage plan ---

// VDDPlanRow is the computed voltage plan for one cache.
type VDDPlanRow struct {
	Org                  string
	VDD1, VDD2, VDD3     float64
	CapacityAtVDD1       float64
	DelayDegradationVDD1 float64
}

// vddPlans computes the voltage-plan table (see the memoizing VDDPlans
// wrapper in memos.go).
func vddPlans() ([]VDDPlanRow, *report.Table, error) {
	var rows []VDDPlanRow
	t := report.NewTable("Computed VDD levels (99% capacity VDD2, 99% yield VDD1)",
		"Cache", "VDD1 (V)", "VDD2 (V)", "VDD3 (V)", "Capacity@VDD1", "Delay@VDD1 (+%)")
	for _, org := range AllOrgs() {
		cs, err := NewCacheSetup(org, 3)
		if err != nil {
			return nil, nil, err
		}
		capFloor := faultmodel.VDD1CapacityFloor(org.Assoc)
		v1, v2, v3, err := cs.FM.VDDLevels(cs.Tech.VDDNom, cs.Tech.VDDMin, capFloor)
		if err != nil {
			return nil, nil, err
		}
		r := VDDPlanRow{
			Org: org.Name, VDD1: v1, VDD2: v2, VDD3: v3,
			CapacityAtVDD1:       cs.FM.ExpectedCapacity(v1),
			DelayDegradationVDD1: cs.CMPCS.DelayDegradation(v1),
		}
		rows = append(rows, r)
		t.AddRow(org.Name, fmt.Sprintf("%.2f", v1), fmt.Sprintf("%.2f", v2), fmt.Sprintf("%.2f", v3),
			fmt.Sprintf("%.4f", r.CapacityAtVDD1), fmt.Sprintf("%.1f", r.DelayDegradationVDD1*100))
	}
	return rows, t, nil
}
