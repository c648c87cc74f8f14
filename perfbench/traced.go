package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/expers"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/version"
)

// storeDoc is one cell output as the result store keeps it.
type storeDoc struct {
	kind   string
	params json.RawMessage
	raw    []byte
}

func docsOf(jobs []runner.Spec, results []runner.JobResult) ([]storeDoc, error) {
	docs := make([]storeDoc, len(results))
	for i, r := range results {
		raw, err := json.Marshal(r.Output)
		if err != nil {
			return nil, err
		}
		docs[i] = storeDoc{jobs[i].Kind, jobs[i].Params, raw}
	}
	return docs, nil
}

// isoDecode times KindInfo.DecodeOutput on a workload's own outputs.
func (b *bench) isoDecode(docs []storeDoc) error {
	reg := expers.NewCampaignRegistry()
	n := 0
	t0 := time.Now()
	for time.Since(t0) < 20*time.Millisecond {
		for _, d := range docs {
			if _, err := reg.Info(d.kind).DecodeOutput(d.raw); err != nil {
				return err
			}
			n++
		}
	}
	b.set("expers.decode_us_per_cell", us(time.Since(t0))/float64(n), "us", n)
	return nil
}

// dirStore is what isoStore measured.
type dirStore struct {
	putUs, putBytes, getUs, getBytes, openMs float64
	n                                        int
}

// isoStore times the directory backend's Put, Get and Open on a scratch
// store filled with a workload's own outputs. The timed ops keep this
// disk cost out (see memBackend); here it is reported on its own.
func (b *bench) isoStore(docs []storeDoc) (*dirStore, error) {
	dir := filepath.Join(b.scratch, "iso-store")
	defer os.RemoveAll(dir)
	st, err := resultstore.Open(dir)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(docs))
	var put, get time.Duration
	var putBytes, getBytes int
	for i, d := range docs {
		if keys[i], err = resultstore.Key(d.kind, d.params, 0, version.String()); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := st.Put(keys[i], d.raw); err != nil {
			return nil, err
		}
		put += time.Since(t0)
		putBytes += len(d.raw)
	}
	for _, k := range keys {
		t0 := time.Now()
		data, ok, err := st.Get(k)
		get += time.Since(t0)
		if err != nil || !ok {
			return nil, fmt.Errorf("isolated store: lost key %s", k)
		}
		getBytes += len(data)
	}
	t0 := time.Now()
	if _, err := resultstore.Open(dir); err != nil {
		return nil, err
	}
	n := float64(len(docs))
	ds := &dirStore{us(put) / n, float64(putBytes) / n, us(get) / n, float64(getBytes) / n, ms(time.Since(t0)), len(docs)}
	b.set("resultstore.dir_put_us", ds.putUs, "us", ds.n)
	b.set("resultstore.dir_get_us", ds.getUs, "us", ds.n)
	return ds, nil
}

// overhead is the traced ops' median over the untraced ops', in percent.
func overhead(traced, untraced []float64) float64 {
	return 100 * (median(traced)/median(untraced) - 1)
}

// fig4Traced is the traced fig4 run. Rounds rotate between traced
// campaigns, untraced campaigns and isolated RunContext rounds, so the
// three see the same machine conditions.
func (b *bench) fig4Traced() error {
	sim, err := b.measureSimLayers()
	if err != nil {
		return err
	}
	var jobs [][]runner.Spec
	cellOf := map[string]int{}
	for i, cfg := range configs() {
		j, err := gridJobs(cfg, sliceWorkloads(), b.sliceOpts())
		if err != nil {
			return err
		}
		for k, s := range j {
			cellOf[string(s.Params)] = i*len(j) + k
		}
		jobs = append(jobs, j)
	}
	rec := newRecorder()
	treg := tracedRegistry(rec, cellOf)
	reg := expers.NewCampaignRegistry()
	var tracedMS, untracedMS []float64
	var nAllocs uint64
	var allocCells, op int
	round := 0
	err = b.window(100, func() error {
		variant := round % 4
		round++
		if variant >= 2 {
			return sim.round(b, variant == 3)
		}
		for i, cfg := range configs() {
			camp := runner.Campaign{Name: "fig4-" + cfg.Name, Seed: b.simSeed, Jobs: jobs[i]}
			if variant == 0 {
				rec.op.Store(int32(op))
				op++
				cr, err := b.runCells(treg, camp, runner.Options{})
				if err != nil {
					return err
				}
				rec.addRun(cr, i*len(jobs[i]))
				b.checkCells(cr, sim.ref)
				for _, l := range cr.lat {
					tracedMS = append(tracedMS, ms(l))
				}
				continue
			}
			a0 := allocs()
			cr, err := b.runCells(reg, camp, runner.Options{})
			if err != nil {
				return err
			}
			nAllocs += allocs() - a0
			allocCells += len(jobs[i])
			b.checkCells(cr, sim.ref)
			for _, l := range cr.lat {
				untracedMS = append(untracedMS, ms(l))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	b.setSim(sim)
	if err := b.setLedgerAndKey(runner.Campaign{Name: "fig4-A", Seed: b.simSeed, Jobs: jobs[0]}); err != nil {
		return err
	}
	var docs []storeDoc
	for _, j := range jobs {
		for _, s := range j {
			docs = append(docs, storeDoc{s.Kind, s.Params, sim.ref[s.Name]})
		}
	}
	if err := b.isoDecode(docs); err != nil {
		return err
	}
	ds, err := b.isoStore(docs)
	if err != nil {
		return err
	}
	// The workload's ops use no store: its store layers are the
	// isolated directory-backend pass on the slice's outputs.
	b.set("resultstore.put_us", ds.putUs, "us", ds.n)
	b.set("resultstore.put_bytes", ds.putBytes, "B", ds.n)
	b.set("resultstore.get_us", ds.getUs, "us", ds.n)
	b.set("resultstore.get_bytes", ds.getBytes, "B", ds.n)
	b.set("resultstore.hit_ratio", 0, "ratio", 0)
	b.set("resultstore.open_ms", ds.openMs, "ms", 1)
	st := rec.stats()
	compute := st.mean(lCompute)
	self := (st.dur[lCell] - st.dur[lCompute]) / time.Duration(st.n[lCell])
	b.set("expers.compute_us_per_cell", us(compute), "us", st.n[lCompute])
	b.set("runner.self_us_per_cell", us(self), "us", st.n[lCell])
	art, n, err := b.fig4Artifacts(jobs[0], sim.ref)
	if err != nil {
		return err
	}
	b.set("runner.artifacts_ms", art, "ms", n)
	b.set("runner.allocs_per_cell", float64(nAllocs)/float64(allocCells), "count", allocCells)

	// Rebuild every traced cell from the runner's self time (its cell
	// span minus the kind function) and the same cell's median isolated
	// RunContext time on a pinned thread, as the runner runs it.
	type key struct{ op, cell int32 }
	cellDur := map[key]time.Duration{}
	computeDur := map[key]time.Duration{}
	for _, s := range rec.spans {
		switch s.Layer {
		case lCell:
			cellDur[key{s.Op, s.Cell}] = time.Duration(s.Dur)
		case lCompute:
			computeDur[key{s.Op, s.Cell}] = time.Duration(s.Dur)
		}
	}
	pinned := medianMs(sim.pinned)
	var actual, predicted []float64
	for k, d := range cellDur {
		actual = append(actual, ms(d))
		predicted = append(predicted, ms(d-computeDur[k])+pinned[k.cell])
	}
	iso := meanMs(sim.isolated)
	pin := b.metrics["runner.pin_ms_per_cell"].Value
	bg := &budget{
		OpMs:        median(actual),
		PredictedMs: median(predicted),
		Rows: []budgetRow{
			{"runner (self)", us(self), 1, ms(self)},
			{"runner thread pin", 1e3 * pin, 1, pin},
			{"cpusim.RunContext (isolated)", 1e3 * iso, 1, iso},
		},
		Note: "the runner's resource probe locks each worker to its OS thread for the job; the remainder is the expers fig4-cell wrapper and run-to-run drift",
	}
	// Inside RunContext: the isolated layer rates times each cell's
	// exact counts; what they leave is unmeasured.
	instr := float64(sliceWarmup + sliceInstr)
	trans := b.metrics["core.transitions_per_cell"].Value
	parts := []budgetRow{
		{"cpusim.build (reused)", 1e3 * sim.buildReusedMs, 1, sim.buildReusedMs},
		{"trace.gen", sim.genNsPerInstr / 1e3, instr, sim.genNsPerInstr * instr / 1e6},
		{"cache.access (L1D)", sim.accessNs / 1e3, sim.l1dPerInst * instr, sim.accessNs * sim.l1dPerInst * instr / 1e6},
		{"core.transition", sim.transitionUs, trans, sim.transitionUs * trans / 1e3},
	}
	rest := iso
	for _, p := range parts {
		rest -= p.ShareMs
	}
	bg.Detail = append(parts, budgetRow{Layer: "unmeasured", ShareMs: rest})
	bg.DetailNote = fmt.Sprintf("unmeasured: %.0f %% of RunContext is the L1I/L2 probes and the step loop (timing model, DPCS tick, energy accounting), which have no public entry point to time in isolation", 100*rest/iso)
	return b.finish(bg, overhead(tracedMS, untracedMS), rec)
}

// fig4Artifacts times what run artifacts add to one configuration's
// campaign, as `pcs sim -runs` writes them. The fig4 ops write none, so
// the campaign is served from an in-memory store holding the slice's
// outputs, alternately with and without an artifact directory.
func (b *bench) fig4Artifacts(jobs []runner.Spec, ref map[string][]byte) (float64, int, error) {
	st, err := resultstore.NewStore(newMemBackend())
	if err != nil {
		return 0, 0, err
	}
	for _, j := range jobs {
		key, err := resultstore.Key(j.Kind, j.Params, b.simSeed, version.String())
		if err != nil {
			return 0, 0, err
		}
		if err := st.Put(key, ref[j.Name]); err != nil {
			return 0, 0, err
		}
	}
	reg := expers.NewCampaignRegistry()
	camp := runner.Campaign{Name: "fig4-A", Seed: b.simSeed, Jobs: jobs}
	var with, without []float64
	for i := 0; i < 40; i++ {
		opts := runner.Options{Workers: b.workers, Cache: st, CodeVersion: version.String()}
		if i%2 == 0 {
			opts.ArtifactDir = b.runDir()
		}
		t0 := time.Now()
		res, err := runner.Run(b.ctx, reg, camp, opts)
		d := ms(time.Since(t0))
		if err != nil {
			return 0, 0, err
		}
		if res.Cached != len(jobs) {
			return 0, 0, fmt.Errorf("artifact probe: %d of %d cells served from the store", res.Cached, len(jobs))
		}
		if opts.ArtifactDir != "" {
			with = append(with, d)
		} else {
			without = append(without, d)
		}
	}
	return median(with) - median(without), len(with) + len(without), nil
}

// coldTraced and cachedTraced are the traced campaign runs.
func (b *bench) coldTraced() error   { return b.campaignTraced(false) }
func (b *bench) cachedTraced() error { return b.campaignTraced(true) }

// campaignTraced rotates ops between a traced campaign, an untraced
// campaign and an untraced campaign without run artifacts.
func (b *bench) campaignTraced(cached bool) error {
	sim, err := b.measureSimLayers()
	if err != nil {
		return err
	}
	b.setSim(sim)
	golden, err := b.readGolden()
	if err != nil {
		return err
	}
	a, err := analyticalCampaign()
	if err != nil {
		return err
	}
	camp := runner.Campaign{Name: "cold", Seed: b.seed, Jobs: a.jobs}
	if cached {
		if a, camp, err = b.cachedCampaign(); err != nil {
			return err
		}
	}
	if err := b.setLedgerAndKey(camp); err != nil {
		return err
	}

	rec := newRecorder()
	treg := tracedRegistry(rec, nil)
	// writes holds the spans of the cells' first computation: the ops
	// themselves for cold, the traced fill for cached.
	writes := rec
	storeDir := filepath.Join(b.scratch, "store")
	var ref []byte
	if cached {
		writes = newRecorder()
		_, _, _, st, err := b.cachedSetup(storeDir)
		if err != nil {
			return err
		}
		if _, ref, err = b.fill(tracedRegistry(writes, nil), tracedCache{st, writes}, camp); err != nil {
			return err
		}
	}

	var traced, untraced, bare, opens []float64
	var nAllocs uint64
	var allocCells int
	var last []runner.JobResult
	n := 0
	err = b.window(100, func() error {
		variant := n % 3
		n++
		var (
			open time.Duration
			reg  *runner.Registry
			st   *resultstore.Store
			err  error
		)
		if cached {
			_, open, reg, st, err = b.cachedSetup(storeDir)
			opens = append(opens, ms(open))
		} else {
			_, reg, st, err = b.coldSetup()
		}
		if err != nil {
			return err
		}
		opts := runner.Options{Cache: st, CodeVersion: version.String(), ArtifactDir: b.runDir()}
		var cr *cellRun
		switch variant {
		case 0:
			rec.op.Store(int32(n))
			opts.Cache = tracedCache{st, rec}
			if cr, err = b.runCells(treg, camp, opts); err != nil {
				return err
			}
			rec.addRun(cr, 0)
			traced = append(traced, ms(cr.wall))
		case 1:
			a0 := allocs()
			if cr, err = b.runCells(reg, camp, opts); err != nil {
				return err
			}
			nAllocs += allocs() - a0
			allocCells += len(camp.Jobs)
			untraced = append(untraced, ms(cr.wall))
		case 2:
			opts.ArtifactDir = ""
			if cr, err = b.runCells(reg, camp, opts); err != nil {
				return err
			}
			bare = append(bare, ms(cr.wall))
		}
		if cached {
			b.checkCached(cr, ref)
		} else {
			b.checkCold(cr, a, golden)
		}
		last = cr.res.Results
		return nil
	})
	if err != nil {
		return err
	}

	docs, err := docsOf(camp.Jobs, last)
	if err != nil {
		return err
	}
	ds, err := b.isoStore(docs)
	if err != nil {
		return err
	}
	st, wst := rec.stats(), writes.stats()
	if cached {
		b.set("expers.decode_us_per_cell", us(st.mean(lDecode)), "us", st.n[lDecode])
		b.set("resultstore.open_ms", median(opens), "ms", len(opens))
	} else {
		// Cold ops never decode, and open an in-memory store: time the
		// decoders and the directory store's Open on the ops' outputs.
		if err := b.isoDecode(docs); err != nil {
			return err
		}
		b.set("resultstore.open_ms", ds.openMs, "ms", 1)
	}
	b.set("expers.compute_us_per_cell", us(wst.mean(lCompute)), "us", wst.n[lCompute])
	b.set("resultstore.put_us", us(wst.mean(lPut)), "us", wst.n[lPut])
	b.set("resultstore.put_bytes", float64(wst.bytes[lPut])/float64(wst.n[lPut]), "B", wst.n[lPut])
	b.set("resultstore.get_us", us(st.mean(lGet)), "us", st.n[lGet])
	b.set("resultstore.get_bytes", float64(st.bytes[lGet])/float64(st.n[lGet]), "B", st.n[lGet])
	b.set("resultstore.hit_ratio", float64(st.hits)/float64(st.n[lGet]), "ratio", st.n[lGet])
	b.set("runner.artifacts_ms", median(untraced)-median(bare), "ms", len(untraced)+len(bare))
	b.set("runner.allocs_per_cell", float64(nAllocs)/float64(allocCells), "count", allocCells)

	// Per traced op: the runner's serial time around the cells plus the
	// cells' layers divided over the workers.
	key := b.metrics["resultstore.key_us"].Value
	cells := float64(st.n[lCell])
	ops := float64(st.n[lOp])
	selfUs := (us(st.dur[lCell]-st.dur[lCompute]-st.dur[lDecode]-st.dur[lGet]-st.dur[lPut]))/cells - key
	b.set("runner.self_us_per_cell", selfUs, "us", st.n[lCell])
	type perOp struct{ op, pre, post, cells time.Duration }
	byOp := map[int32]*perOp{}
	for _, s := range rec.spans {
		p := byOp[s.Op]
		if p == nil {
			p = &perOp{}
			byOp[s.Op] = p
		}
		d := time.Duration(s.Dur)
		switch s.Layer {
		case lOp:
			p.op += d
		case lPre:
			p.pre += d
		case lPost:
			p.post += d
		case lCell:
			p.cells += d
		}
	}
	w := float64(b.workers)
	var actual, predicted []float64
	for _, p := range byOp {
		actual = append(actual, ms(p.op))
		predicted = append(predicted, ms(p.pre+p.post)+ms(p.cells)/w)
	}
	perCell := cells / ops
	row := func(name string, l layer) budgetRow {
		return budgetRow{name, us(st.mean(l)), float64(st.n[l]) / ops, ms(st.dur[l]) / ops / w}
	}
	serial := ms(st.dur[lPre]+st.dur[lPost]) / ops
	bg := &budget{
		OpMs:        median(actual),
		PredictedMs: median(predicted),
		Rows: []budgetRow{
			{"runner serial (pre+post)", 1e3 * serial, 1, serial},
			row("expers.compute", lCompute),
			row("expers.decode", lDecode),
			row("resultstore.get", lGet),
			row("resultstore.put", lPut),
			{"resultstore.key", key, perCell, key * perCell / 1e3 / w},
			{"runner (self, per cell)", selfUs, perCell, selfUs * perCell / 1e3 / w},
		},
		Note: fmt.Sprintf("cell layers are divided over the campaign's %d worker(s); the remainder is pool dispatch and idle time outside any cell", b.workers),
	}
	digest := b.metrics["ledger.specs_digest_ms"].Value
	appends := b.metrics["ledger.append_us"].Value * float64(len(camp.Jobs)+3) / 1e3
	bg.Detail = []budgetRow{
		{Layer: "ledger.specs_digest", ShareMs: digest},
		{Layer: "ledger.append", ShareMs: appends},
		{Layer: "other artifact writes", ShareMs: serial - digest - appends},
	}
	bg.DetailNote = "split of the runner's serial time, from isolated ledger calls"
	recs := []*recorder{rec}
	if cached {
		recs = append(recs, writes)
	}
	return b.finish(bg, overhead(traced, untraced), recs...)
}
