package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cpusim"
	"repro/internal/expers"
	"repro/internal/ledger"
	"repro/internal/mechanism"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/version"
)

// The cold and cached workloads time the campaign layers: cold writes
// a fresh design-space sweep into an empty result store, cached serves
// the same sweep plus a short-window Fig. 4 grid from a filled one.
// One op is one campaign (runner.Run with a store and run artifacts).

// The cached workload's Fig. 4 grid runs every benchmark of the suite
// with this short window; only its stored results are timed.
const (
	gridWarmup = 20_000
	gridInstr  = 100_000
)

// analytical is the design-space sweep both campaign workloads run: the
// `pcs sweep` analytical studies followed by a wider min-VDD grid.
type analytical struct {
	jobs []runner.Spec
	// golden lists the studies whose tables sweep_output.txt records,
	// with the offset of each study's first job in jobs.
	golden  []expers.Study
	offsets []int
}

func analyticalCampaign() (*analytical, error) {
	a := &analytical{}
	mechs, err := expers.MechStudy(nil)
	if err != nil {
		return nil, err
	}
	for _, st := range []expers.Study{expers.AssocStudy(), expers.LevelsStudy(), expers.CellsStudy(), mechs} {
		if st.Name != "mechs" {
			a.golden = append(a.golden, st)
			a.offsets = append(a.offsets, len(a.jobs))
		}
		a.jobs = append(a.jobs, st.Jobs...)
	}
	// Cache geometries around the studies' 64 KB point, at two yields.
	for _, size := range []int{8 << 10, 16 << 10, 32 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20} {
		for _, ways := range []int{1, 2, 4, 8, 16} {
			for _, block := range []int{32, 64} {
				for _, y := range []float64{0.99, 0.999} {
					a.jobs = append(a.jobs, spec("minvdd", fmt.Sprintf("%dK/%dway/%dB/y%g", size>>10, ways, block, y),
						expers.MinVDDParams{SizeBytes: size, Ways: ways, BlockBytes: block, Yield: y, VMin: 0.30, VMax: 1.00}))
				}
			}
		}
	}
	// Every registered mechanism on every Table-2 organisation; the
	// mechs study already holds l1a with two low levels at 99 %.
	for _, org := range []string{"l1a", "l2a", "l1b", "l2b"} {
		for _, m := range mechanism.Names() {
			d, _ := mechanism.ByName(m)
			for _, low := range []int{1, 2, 3} {
				for _, y := range []float64{0.99, 0.999} {
					if org == "l1a" && low == 2 && y == 0.99 {
						continue
					}
					a.jobs = append(a.jobs, spec("mechminvdd", fmt.Sprintf("%s/%s/low%d/y%g", org, m, low, y),
						expers.MechMinVDDParams{Org: org, Mechanism: m, MechVersion: d.Version,
							NLowVDDs: low, Yield: y, VMin: expers.VLo, VMax: expers.VHi}))
				}
			}
		}
	}
	return a, nil
}

// spec builds one campaign job from its kind's parameter struct.
func spec(kind, name string, params any) runner.Spec {
	raw, err := json.Marshal(params)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal %s params: %v", kind, err))
	}
	return runner.Spec{Kind: kind, Name: name, Params: raw}
}

// checkTables renders the golden studies from a campaign's results and
// compares each table with its section of sweep_output.txt.
func (a *analytical) checkTables(results []runner.JobResult, golden []byte) error {
	for i, st := range a.golden {
		t, err := st.Table(results[a.offsets[i] : a.offsets[i]+len(st.Jobs)])
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := t.Render(&buf); err != nil {
			return err
		}
		got := buf.Bytes()
		title := got[:bytes.IndexByte(got, '\n')+1]
		at := bytes.Index(golden, title)
		if at < 0 || !bytes.HasPrefix(golden[at:], got) {
			return fmt.Errorf("%s table differs from sweep_output.txt", st.Name)
		}
	}
	return nil
}

// coldSetup is one in-process cold set-up of the cold workload: the
// registry, an empty store and reset memo tables. The store keeps its
// entries in memory (see memBackend).
func (b *bench) coldSetup() (time.Duration, *runner.Registry, *resultstore.Store, error) {
	t0 := time.Now()
	reg := expers.NewCampaignRegistry()
	st, err := resultstore.NewStore(newMemBackend())
	expers.ResetMemos()
	return time.Since(t0), reg, st, err
}

// memBackend is a resultstore.Backend over a map. Every Put to the
// directory backend allocates an inode, and on a shared disk that cost
// swings by an order of magnitude from minute to minute, so the cold
// workload's stores live in memory; the directory backend's own Put
// and Get are timed in isolation by the traced run.
type memBackend struct {
	mu sync.RWMutex
	m  map[string][]byte
}

func newMemBackend() *memBackend { return &memBackend{m: map[string][]byte{}} }

func (m *memBackend) Get(key string) ([]byte, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.m[key]
	return data, ok, nil
}

func (m *memBackend) Put(key string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.m[key] = bytes.Clone(data)
	return nil
}

func (m *memBackend) Entries() ([]resultstore.EntryInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]resultstore.EntryInfo, 0, len(m.m))
	for k, v := range m.m {
		out = append(out, resultstore.EntryInfo{Key: k, Bytes: int64(len(v))})
	}
	return out, nil
}

func (m *memBackend) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.m, key)
	return nil
}

// runDir is where every op of a run writes its artifacts. Ops reuse
// it, overwriting the previous op's files, so that no op allocates
// inodes (see memBackend); each op's files are checked before the next.
func (b *bench) runDir() string { return filepath.Join(b.scratch, "run") }

// checkCold counts one cold op, failing it unless every cell was
// computed, the golden tables match and the run's ledger verifies.
func (b *bench) checkCold(cr *cellRun, a *analytical, golden []byte) {
	b.attempted++
	res := cr.res
	if res.Done != len(a.jobs) || res.Cached != 0 {
		b.fail("cold op: %d of %d cells done, %d cached", res.Done, len(a.jobs), res.Cached)
		return
	}
	if err := a.checkTables(res.Results, golden); err != nil {
		b.fail("cold op: %v", err)
		return
	}
	if res.ArtifactDir != "" {
		if _, err := ledger.VerifyDir(res.ArtifactDir); err != nil {
			b.fail("cold op: %v", err)
		}
	}
}

func (b *bench) readGolden() ([]byte, error) {
	return os.ReadFile(filepath.Join(b.root, "sweep_output.txt"))
}

// cold is the untraced cold run: end-to-end metrics.
func (b *bench) cold() error {
	a, err := analyticalCampaign()
	if err != nil {
		return err
	}
	golden, err := b.readGolden()
	if err != nil {
		return err
	}
	camp := runner.Campaign{Name: "cold", Seed: b.seed, Jobs: a.jobs}
	var e e2e
	fid := newFidelity(campaignPasses)
	err = b.window(100, func() error {
		if err := b.due(fid); err != nil {
			return err
		}
		d, reg, st, err := b.coldSetup()
		if err != nil {
			return err
		}
		e.setupS = append(e.setupS, d.Seconds())
		cr, err := b.runCells(reg, camp, runner.Options{Cache: st, CodeVersion: version.String(), ArtifactDir: b.runDir()})
		if err != nil {
			return err
		}
		b.checkCold(cr, a, golden)
		e.addCampaign(cr)
		return nil
	})
	if err != nil {
		return err
	}
	return b.endToEndCampaign(&e, fid)
}

// campaignPasses is how many fidelity passes a campaign workload spreads
// through its window: its minstr_per_s rests on them alone, and one
// pass, three seconds of simulation, spread up to 24 % across ten runs.
const campaignPasses = 2

// endToEndCampaign completes the fidelity passes spread through a
// campaign workload's timed ops and reports the end-to-end metrics.
func (b *bench) endToEndCampaign(e *e2e, fid *fidelity) error {
	if err := b.finishPass(fid); err != nil {
		return err
	}
	b.endToEnd(e, fid, fid.minstrPerS(), int(fid.instr/(sliceWarmup+sliceInstr)))
	return nil
}

// cachedCampaign is the analytical sweep plus the short-window Fig. 4
// grid of the whole suite on both configurations.
func (b *bench) cachedCampaign() (*analytical, runner.Campaign, error) {
	a, err := analyticalCampaign()
	if err != nil {
		return nil, runner.Campaign{}, err
	}
	jobs := append([]runner.Spec(nil), a.jobs...)
	for _, cfg := range configs() {
		g, err := gridJobs(cfg, trace.Suite(), cpusim.RunOptions{WarmupInstr: gridWarmup, SimInstr: gridInstr, Seed: b.simSeed})
		if err != nil {
			return nil, runner.Campaign{}, err
		}
		jobs = append(jobs, g...)
	}
	return a, runner.Campaign{Name: "cached", Seed: b.seed, Jobs: jobs}, nil
}

// cachedSetup is one in-process cold set-up of the cached workload: the
// registry and the filled store.
func (b *bench) cachedSetup(storeDir string) (total, open time.Duration, reg *runner.Registry, st *resultstore.Store, err error) {
	t0 := time.Now()
	reg = expers.NewCampaignRegistry()
	t1 := time.Now()
	st, err = resultstore.Open(storeDir)
	open = time.Since(t1)
	return time.Since(t0), open, reg, st, err
}

// fill computes every cell of the cached campaign into the store once,
// returning the fill's results.jsonl as every later op's reference.
func (b *bench) fill(reg *runner.Registry, cache runner.ResultCache, camp runner.Campaign) (*cellRun, []byte, error) {
	dir := filepath.Join(b.scratch, "fill")
	cr, err := b.runCells(reg, camp, runner.Options{Cache: cache, CodeVersion: version.String(), ArtifactDir: dir})
	if err != nil {
		return nil, nil, err
	}
	if cr.res.Done != len(camp.Jobs) || cr.res.Cached != 0 {
		return nil, nil, fmt.Errorf("fill: %d of %d cells done, %d cached", cr.res.Done, len(camp.Jobs), cr.res.Cached)
	}
	ref, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	return cr, ref, err
}

// checkCached counts one cached op, failing it unless every cell was
// served from the store and results.jsonl matches the fill's.
func (b *bench) checkCached(cr *cellRun, ref []byte) {
	b.attempted++
	res := cr.res
	if res.Cached != len(res.Results) {
		b.fail("cached op: %d of %d cells served from the store", res.Cached, len(res.Results))
		return
	}
	if res.ArtifactDir == "" {
		return
	}
	got, err := os.ReadFile(filepath.Join(res.ArtifactDir, "results.jsonl"))
	if err != nil || !bytes.Equal(got, ref) {
		b.fail("cached op: results.jsonl differs from the fill's")
	}
}

// cached is the untraced cached run: end-to-end metrics.
func (b *bench) cached() error {
	_, camp, err := b.cachedCampaign()
	if err != nil {
		return err
	}
	storeDir := filepath.Join(b.scratch, "store")
	_, _, reg, st, err := b.cachedSetup(storeDir)
	if err != nil {
		return err
	}
	_, ref, err := b.fill(reg, st, camp)
	if err != nil {
		return err
	}
	var e e2e
	fid := newFidelity(campaignPasses)
	err = b.window(100, func() error {
		if err := b.due(fid); err != nil {
			return err
		}
		d, _, reg, st, err := b.cachedSetup(storeDir)
		if err != nil {
			return err
		}
		e.setupS = append(e.setupS, d.Seconds())
		cr, err := b.runCells(reg, camp, runner.Options{Cache: st, CodeVersion: version.String(), ArtifactDir: b.runDir()})
		if err != nil {
			return err
		}
		b.checkCached(cr, ref)
		e.addCampaign(cr)
		return nil
	})
	if err != nil {
		return err
	}
	return b.endToEndCampaign(&e, fid)
}
