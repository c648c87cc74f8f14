package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/obs/tracez"
	"repro/internal/resultstore"
)

// TestNewRunDirSuffixing checks colliding timestamps get numeric
// suffixes instead of reusing (or clobbering) an existing run
// directory. Three directories created back-to-back within one second
// must all be distinct children of root.
func TestNewRunDirSuffixing(t *testing.T) {
	root := t.TempDir()
	seen := make(map[string]bool)
	for i := 0; i < 3; i++ {
		dir, err := NewRunDir(root)
		if err != nil {
			t.Fatal(err)
		}
		if seen[dir] {
			t.Fatalf("NewRunDir reused %s", dir)
		}
		seen[dir] = true
		if filepath.Dir(dir) != root {
			t.Fatalf("run dir %s not under root %s", dir, root)
		}
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			t.Fatalf("run dir %s: stat %v", dir, err)
		}
	}
	// With sub-second creation at least one collision occurred, so at
	// least one name must carry the -N suffix.
	var suffixed bool
	for dir := range seen {
		if strings.Contains(filepath.Base(dir), "-") {
			suffixed = true
		}
	}
	if !suffixed {
		t.Skip("directories landed in distinct seconds; no collision to exercise")
	}
}

// TestFailedSetupWritesNoManifest checks a campaign whose manifest
// cannot be encoded (a job's params are blank, not JSON) fails Run and
// leaves no manifest.json behind, rather than an empty one.
func TestFailedSetupWritesNoManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	c := Campaign{Name: "blank", Seed: 1, Jobs: []Spec{{Kind: "drawsum", Name: "j", Params: json.RawMessage("  ")}}}
	_, err := Run(context.Background(), testRegistry(t), c, Options{Workers: 1, ArtifactDir: dir})
	if err == nil || !strings.Contains(err.Error(), "encode manifest.json") {
		t.Fatalf("Run error = %v, want the manifest encoding failure", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("manifest.json after a failed set-up: stat error %v, want not-exist", err)
	}
}

// TestManifestRoundTrip checks manifest.json records the campaign
// verbatim: the specs array decodes back to the jobs that ran, and the
// ledger's manifest entry agrees with the sidecar.
func TestManifestRoundTrip(t *testing.T) {
	reg := testRegistry(t)
	dir := filepath.Join(t.TempDir(), "run")
	c := drawSumCampaign(4)
	if _, err := Run(context.Background(), reg, c, Options{Workers: 2, ArtifactDir: dir, CodeVersion: "v-rt"}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Campaign string    `json:"campaign"`
		Seed     uint64    `json:"seed"`
		Jobs     int       `json:"jobs"`
		Workers  int       `json:"workers"`
		Created  time.Time `json:"created"`
		Specs    []Spec    `json:"specs"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m.Campaign != c.Name || m.Seed != c.Seed || m.Jobs != len(c.Jobs) || m.Workers != 2 {
		t.Fatalf("manifest header %+v", m)
	}
	if m.Created.IsZero() {
		t.Error("manifest created time is zero")
	}
	// The manifest holds each job's params canonicalized, which
	// reformats the raw ones; the round-trip guarantee is semantic, so
	// compare compacted.
	compact := func(raw json.RawMessage) string {
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if len(m.Specs) != len(c.Jobs) {
		t.Fatalf("manifest has %d specs, want %d", len(m.Specs), len(c.Jobs))
	}
	for i := range c.Jobs {
		got, want := m.Specs[i], c.Jobs[i]
		if got.Kind != want.Kind || got.Name != want.Name || compact(got.Params) != compact(want.Params) {
			t.Fatalf("spec %d does not round-trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
	// The hash chain closes over the same identity.
	rep, err := ledger.VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Manifest.CodeVersion != "v-rt" || rep.Manifest.Seed != c.Seed {
		t.Fatalf("ledger manifest %+v", rep.Manifest)
	}
}

// TestCancelledRunClosesArtifacts checks a cancelled campaign still
// leaves a parseable spans.jsonl and a closed, verifiable ledger chain:
// the summary entry must be present (truncation would otherwise be
// indistinguishable from a crash) and record the cancelled counts.
func TestCancelledRunClosesArtifacts(t *testing.T) {
	reg := testRegistry(t)
	dir := filepath.Join(t.TempDir(), "run")
	c := Campaign{Name: "cancel", Seed: 3}
	for i := 0; i < 6; i++ {
		c.Jobs = append(c.Jobs, Spec{Kind: "block"})
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	res, err := Run(ctx, reg, c, Options{Workers: 2, ArtifactDir: dir})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Cancelled == 0 {
		t.Fatal("no jobs cancelled")
	}

	rep, err := ledger.VerifyDir(dir)
	if err != nil {
		t.Fatalf("cancelled run's ledger does not verify: %v", err)
	}
	if rep.Summary.Cancelled != res.Cancelled || rep.Summary.Done != res.Done {
		t.Fatalf("ledger summary %+v, campaign counts done=%d cancelled=%d",
			rep.Summary, res.Done, res.Cancelled)
	}

	// Every spans.jsonl line must be a whole JSON document (no torn
	// write from the cancelled workers), and each job that ran has its
	// span.
	b, err := os.ReadFile(filepath.Join(dir, tracez.FileName))
	if err != nil {
		t.Fatal(err)
	}
	jobSpans := 0
	for i, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var sp tracez.Span
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("spans.jsonl line %d: %v", i, err)
		}
		if sp.Name == "job" {
			jobSpans++
		}
	}
	if jobSpans == 0 || jobSpans > len(c.Jobs) {
		t.Fatalf("%d job spans for %d jobs", jobSpans, len(c.Jobs))
	}
}

// TestCanonicalSpecsMatchMarshal checks the set-up canonicalization
// against the marshal-then-canonicalize path it replaces: each spec
// object is CanonicalJSON of the marshalled spec, the digest over the
// objects, and the one a campaign's ledger records, is
// ledger.SpecsDigest of the marshalled job array, and each store key is
// resultstore.Key over the raw params.
func TestCanonicalSpecsMatchMarshal(t *testing.T) {
	for _, set := range []struct {
		name string
		jobs []Spec
	}{
		{"empty params", []Spec{{Kind: "k"}, {Kind: "k", Name: "n", Params: json.RawMessage{}}}},
		{"null params", []Spec{{Kind: "k", Params: json.RawMessage("null")}, {Kind: "k", Name: "n", Params: json.RawMessage(" null\n")}}},
		{"reordered keys", []Spec{
			{Kind: "minvdd", Params: json.RawMessage(`{"ways":4, "size_bytes":65536,"block_bytes":64}`)},
			{Kind: "k", Params: json.RawMessage(`{"b":[1,0.10,{"y":null,"x":"é"}],"a":{"d":1,"c":2},"a":true}`)},
		}},
		{"escapes", []Spec{
			{Kind: "k<>&", Name: "l1<a>&\u2028\u2029", Params: json.RawMessage(`{"s":"<&>` + "\u2028" + `"}`)},
			{Kind: "k\xff", Name: "bad \xff utf8 \"q\"\\", Params: json.RawMessage("{\"s\":\"\xff\\ud800\",\"<\":1}")},
			{Kind: "k", Name: "a<b"}, {Kind: "k", Name: "a>b"}, {Kind: "k", Name: "a&b"}, {Kind: "k", Name: `a"b`},
			{Kind: "k", Name: `a\b`}, {Kind: "k", Name: "a\tb"}, {Kind: "k", Name: "é"}, {Kind: "k", Name: "\u2029"},
		}},
	} {
		specs, err := canonicalSpecs(set.jobs)
		if err != nil {
			t.Fatalf("%s: %v", set.name, err)
		}
		objs := make([][]byte, len(specs))
		for i, s := range specs {
			job := set.jobs[i]
			raw, err := json.Marshal(job)
			if err != nil {
				t.Fatal(err)
			}
			want, err := resultstore.CanonicalJSON(raw)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(s.obj, want) {
				t.Errorf("%s: job %d object\n got %s\nwant %s", set.name, i, s.obj, want)
			}
			wantKey, err := resultstore.Key(job.Kind, job.Params, 3, "v")
			if err != nil {
				t.Fatal(err)
			}
			if got := resultstore.KeyCanonical(job.Kind, s.params, 3, "v"); got != wantKey {
				t.Errorf("%s: job %d key %s, want %s", set.name, i, got, wantKey)
			}
			objs[i] = s.obj
		}
		raw, err := json.Marshal(set.jobs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ledger.SpecsDigest(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got := ledger.CanonicalSpecsDigest(objs); got != want {
			t.Errorf("%s: digest %s, want %s", set.name, got, want)
		}
		reg := NewRegistry()
		for _, j := range set.jobs {
			if _, ok := reg.Lookup(j.Kind); !ok {
				reg.MustRegister(j.Kind, func(context.Context, uint64, json.RawMessage) (any, error) { return 1, nil })
			}
		}
		dir := filepath.Join(t.TempDir(), "run")
		if _, err := Run(context.Background(), reg, Campaign{Name: set.name, Jobs: set.jobs}, Options{Workers: 2, ArtifactDir: dir}); err != nil {
			t.Fatalf("%s: %v", set.name, err)
		}
		rep, err := ledger.VerifyDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", set.name, err)
		}
		if rep.Manifest.SpecsDigest != want {
			t.Errorf("%s: ledger specs digest %s, want %s", set.name, rep.Manifest.SpecsDigest, want)
		}
	}
}

// TestCanonicalSpecsRefuseNonValues checks that params encoding/json
// would refuse to marshal, blank ones included, get no canonical entry
// and an error naming the first such job, while the other jobs keep
// theirs.
func TestCanonicalSpecsRefuseNonValues(t *testing.T) {
	jobs := []Spec{
		{Kind: "k", Params: json.RawMessage(`{"a":1}`)},
		{Kind: "k", Params: json.RawMessage(" \t\r\n")},
		{Kind: "k", Params: json.RawMessage(`{"a":`)},
		{Kind: "k", Params: json.RawMessage(`1 2`)},
	}
	specs, err := canonicalSpecs(jobs)
	if err == nil || !strings.Contains(err.Error(), "job 1 params") {
		t.Fatalf("error %v, want one naming job 1", err)
	}
	if string(specs[0].obj) != `{"kind":"k","params":{"a":1}}` || string(specs[0].params) != `{"a":1}` {
		t.Errorf("job 0: %+v", specs[0])
	}
	for i := 1; i < len(jobs); i++ {
		if specs[i].obj != nil || specs[i].params != nil {
			t.Errorf("job %d: canonical entry %+v for params %q", i, specs[i], jobs[i].Params)
		}
		if _, err := json.Marshal(jobs[i]); err == nil {
			t.Errorf("job %d: encoding/json accepts params %q", i, jobs[i].Params)
		}
	}
}

// recordingCache is an in-memory ResultCache that records the keys it
// is asked for.
type recordingCache struct {
	mu         sync.Mutex
	m          map[string][]byte
	gets, puts []string
}

func (c *recordingCache) Get(key string) ([]byte, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets = append(c.gets, key)
	data, ok := c.m[key]
	return data, ok, nil
}

func (c *recordingCache) Put(key string, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[string][]byte{}
	}
	c.puts = append(c.puts, key)
	c.m[key] = data
	return nil
}

// TestCampaignCanonicalSpecs runs a 4-worker campaign with a store and
// a run directory and checks the set-up canonical bytes serve all
// three uses: the store keys are resultstore.Key's, the ledger's specs
// digest is ledger.SpecsDigest of the marshalled jobs, and manifest.json
// lists one canonical spec object per line. With the store alone, jobs
// whose params are not one JSON value are neither looked up nor stored,
// and fail in their kind function while the rest complete.
func TestCampaignCanonicalSpecs(t *testing.T) {
	var execs atomic.Int64
	reg := cacheTestRegistry(t, &execs)
	c := Campaign{Name: "canon", Seed: 5}
	for i := 0; i < 12; i++ {
		params := fmt.Sprintf(`{ "draws": %d, "seed": 0 }`, i)
		if i%3 == 0 {
			params = fmt.Sprintf(`{"seed":0,"draws":%d}`, i)
		}
		c.Jobs = append(c.Jobs, Spec{Kind: "counted", Name: fmt.Sprintf("j<%d>", i), Params: json.RawMessage(params)})
	}
	c.Jobs[4].Params = json.RawMessage("null")
	c.Jobs[7].Params = nil
	wantKeys := map[string]bool{}
	for i, j := range c.Jobs {
		k, err := resultstore.Key(j.Kind, j.Params, JobSeed(c.Seed, i), "v")
		if err != nil {
			t.Fatal(err)
		}
		wantKeys[k] = true
	}

	cache := &recordingCache{}
	dir := filepath.Join(t.TempDir(), "run")
	res, err := Run(context.Background(), reg, c, Options{Workers: 4, ArtifactDir: dir, Cache: cache, CodeVersion: "v"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != len(c.Jobs)-1 { // job 7's nil params do not decode
		t.Fatalf("done %d of %d", res.Done, len(c.Jobs))
	}
	if len(cache.gets) != len(c.Jobs) {
		t.Errorf("%d lookups for %d jobs", len(cache.gets), len(c.Jobs))
	}
	for _, k := range append(cache.gets, cache.puts...) {
		if !wantKeys[k] {
			t.Errorf("store key %s is not resultstore.Key of any job", k)
		}
	}
	raw, err := json.Marshal(c.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, err := ledger.SpecsDigest(raw)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ledger.VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Manifest.SpecsDigest != wantDigest {
		t.Errorf("ledger specs digest %s, want %s", rep.Manifest.SpecsDigest, wantDigest)
	}
	mb, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	_, lines, ok := strings.Cut(string(mb), "\n  \"specs\": [\n")
	if !ok {
		t.Fatalf("manifest.json has no specs array:\n%s", mb)
	}
	for i, line := range strings.Split(strings.TrimSuffix(lines, "\n  ]\n}\n"), ",\n") {
		spec, err := json.Marshal(c.Jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := resultstore.CanonicalJSON(spec)
		if err != nil {
			t.Fatal(err)
		}
		if line != "    "+string(want) {
			t.Errorf("manifest spec line %d: %q, want %q", i, line, "    "+string(want))
		}
	}

	// Store only: the two jobs with non-JSON params skip the store.
	c.Jobs[2].Params = json.RawMessage("  ")
	c.Jobs[9].Params = json.RawMessage(`{"draws":`)
	cache = &recordingCache{}
	res, err = Run(context.Background(), reg, c, Options{Workers: 4, Cache: cache, CodeVersion: "v"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[2].Status != StatusFailed || res.Results[9].Status != StatusFailed || res.Done != len(c.Jobs)-3 {
		t.Errorf("store-only run: done %d, job 2 %s, job 9 %s", res.Done, res.Results[2].Status, res.Results[9].Status)
	}
	if len(cache.gets) != len(c.Jobs)-2 || len(cache.puts) != len(c.Jobs)-3 {
		t.Errorf("store-only run: %d lookups and %d stores for %d jobs", len(cache.gets), len(cache.puts), len(c.Jobs))
	}
}

// fuzzedFiles are the run-directory files FuzzVerifyDir edits.
var fuzzedFiles = [...]string{"manifest.json", "results.jsonl", "summary.json", ledger.FileName}

// FuzzVerifyDir edits one file of a verified 3-job run directory,
// written with manifest.json in the current layout or in the older
// indented one, by overwriting, inserting or truncating bytes. The
// property: ledger.VerifyDir never panics, and whenever it accepts the
// edited directory, results.jsonl is byte-identical to the original
// and manifest.json's specs canonicalize to the original's.
func FuzzVerifyDir(f *testing.F) {
	c := drawSumCampaign(3)
	seeds := map[bool]string{false: filepath.Join(f.TempDir(), "run")}
	if _, err := Run(context.Background(), testRegistry(f), c, Options{Workers: 2, ArtifactDir: seeds[false]}); err != nil {
		f.Fatal(err)
	}
	// The same run directory as older code wrote it: the manifest
	// encoded in one indented pass, raw params and all.
	seeds[true] = f.TempDir()
	copyRunDir(f, seeds[true], seeds[false])
	var old struct {
		manifest
		Specs []Spec `json:"specs"`
	}
	mb, err := os.ReadFile(filepath.Join(seeds[false], "manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	if err := json.Unmarshal(mb, &old); err != nil {
		f.Fatal(err)
	}
	old.Specs = c.Jobs
	if err := writeJSON(filepath.Join(seeds[true], "manifest.json"), old); err != nil {
		f.Fatal(err)
	}
	results, err := os.ReadFile(filepath.Join(seeds[false], "results.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	specs := manifestSpecs(f, seeds[false])
	for _, dir := range seeds {
		if _, err := ledger.VerifyDir(dir); err != nil {
			f.Fatalf("unedited %s: %v", dir, err)
		}
		if got := manifestSpecs(f, dir); !bytes.Equal(got, specs) {
			f.Fatalf("%s specs %s, want %s", dir, got, specs)
		}
	}

	// Arguments: indented layout, file, operation (overwrite, insert,
	// truncate), offset, bytes.
	f.Add(false, uint8(0), uint8(0), uint16(0), []byte{})
	f.Add(true, uint8(0), uint8(0), uint16(0), []byte{})
	f.Add(false, uint8(0), uint8(0), uint16(200), []byte(`9`))
	f.Add(true, uint8(0), uint8(1), uint16(40), []byte("\n "))
	f.Add(true, uint8(0), uint8(2), uint16(300), []byte{})
	f.Add(false, uint8(1), uint8(0), uint16(30), []byte(`7`))
	f.Add(false, uint8(1), uint8(2), uint16(100), []byte{})
	f.Add(false, uint8(2), uint8(0), uint16(9), []byte(`4`))
	f.Add(true, uint8(2), uint8(1), uint16(1), []byte(` "done":3,`))
	f.Add(false, uint8(3), uint8(1), uint16(0), []byte("\n"))
	f.Add(false, uint8(3), uint8(0), uint16(15), []byte(`x`))
	f.Add(true, uint8(3), uint8(2), uint16(500), []byte{})
	f.Fuzz(func(t *testing.T, indented bool, file, op uint8, off uint16, data []byte) {
		dir := t.TempDir()
		copyRunDir(t, dir, seeds[indented])
		path := filepath.Join(dir, fuzzedFiles[int(file)%len(fuzzedFiles)])
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		at := int(off) % (len(b) + 1)
		switch op % 3 {
		case 0:
			tail := b[min(at+len(data), len(b)):]
			b = append(append(b[:at:at], data...), tail...)
		case 1:
			b = append(append(b[:at:at], data...), b[at:]...)
		default:
			b = b[:at]
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ledger.VerifyDir(dir); err != nil {
			return
		}
		got, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, results) {
			t.Errorf("VerifyDir accepted an edited results.jsonl:\n%s", got)
		}
		if got := manifestSpecs(t, dir); !bytes.Equal(got, specs) {
			t.Errorf("VerifyDir accepted manifest specs %s, want %s", got, specs)
		}
	})
}

// copyRunDir copies the files of run directory src into dst.
func copyRunDir(tb testing.TB, dst, src string) {
	tb.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
}

// manifestSpecs returns the canonical form of dir's manifest.json
// "specs" field, read as VerifyDir reads it; nil if it does not parse.
func manifestSpecs(tb testing.TB, dir string) []byte {
	tb.Helper()
	mb, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		tb.Fatal(err)
	}
	var m struct {
		Specs json.RawMessage `json:"specs"`
	}
	if json.Unmarshal(mb, &m) != nil {
		return nil
	}
	canon, _ := resultstore.CanonicalJSON(m.Specs)
	return canon
}
