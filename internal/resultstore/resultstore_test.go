package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestCanonicalJSONEquivalence(t *testing.T) {
	cases := []struct {
		name string
		a, b string
	}{
		{"key order", `{"a":1,"b":2}`, `{"b":2,"a":1}`},
		{"whitespace", `{ "a" : [1, 2,   3] }`, `{"a":[1,2,3]}`},
		{"nested order", `{"x":{"p":1,"q":2},"y":true}`, `{"y":true,"x":{"q":2,"p":1}}`},
	}
	for _, c := range cases {
		ca, err := CanonicalJSON([]byte(c.a))
		if err != nil {
			t.Fatalf("%s: canonicalize a: %v", c.name, err)
		}
		cb, err := CanonicalJSON([]byte(c.b))
		if err != nil {
			t.Fatalf("%s: canonicalize b: %v", c.name, err)
		}
		if string(ca) != string(cb) {
			t.Errorf("%s: canonical forms differ: %s vs %s", c.name, ca, cb)
		}
	}
}

func TestCanonicalJSONNumberLiterals(t *testing.T) {
	// 0.10 and 0.1 are numerically equal but must stay distinct: the
	// spec author wrote different literals and strict round-tripping is
	// cheaper to reason about than float equivalence.
	a, err := CanonicalJSON([]byte(`{"v":0.10}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalJSON([]byte(`{"v":0.1}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) == string(b) {
		t.Errorf("distinct number literals canonicalized identically: %s", a)
	}
	if string(a) != `{"v":0.10}` {
		t.Errorf("literal not preserved: got %s", a)
	}
	// A huge uint64 must not round-trip through float64.
	c, err := CanonicalJSON([]byte(`{"seed":18446744073709551615}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(c) != `{"seed":18446744073709551615}` {
		t.Errorf("uint64 literal mangled: got %s", c)
	}
}

func TestKeySensitivity(t *testing.T) {
	base := func() (string, error) {
		return Key("cpusim", []byte(`{"workload":"mix","cycles":1000}`), 42, "v1.0.0")
	}
	k0, err := base()
	if err != nil {
		t.Fatal(err)
	}

	// Semantically identical params (reordered) hash identically.
	same, err := Key("cpusim", []byte(`{"cycles":1000,"workload":"mix"}`), 42, "v1.0.0")
	if err != nil {
		t.Fatal(err)
	}
	if same != k0 {
		t.Error("reordered params changed the key")
	}

	// Each key component must perturb the hash. A changed code version or
	// seed missing the cache is an acceptance criterion of the store.
	variants := map[string]func() (string, error){
		"kind": func() (string, error) {
			return Key("multicore", []byte(`{"workload":"mix","cycles":1000}`), 42, "v1.0.0")
		},
		"params":  func() (string, error) { return Key("cpusim", []byte(`{"workload":"mix","cycles":2000}`), 42, "v1.0.0") },
		"seed":    func() (string, error) { return Key("cpusim", []byte(`{"workload":"mix","cycles":1000}`), 43, "v1.0.0") },
		"version": func() (string, error) { return Key("cpusim", []byte(`{"workload":"mix","cycles":1000}`), 42, "v1.0.1") },
	}
	for name, fn := range variants {
		k, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k == k0 {
			t.Errorf("changed %s did not change the key", name)
		}
	}

	if len(k0) != 64 {
		t.Errorf("key is not hex SHA-256: %q", k0)
	}
}

func TestDirBackendRoundTrip(t *testing.T) {
	b, err := OpenDir(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key, err := Key("cpusim", []byte(`{"a":1}`), 7, "test")
	if err != nil {
		t.Fatal(err)
	}

	if _, ok, err := b.Get(key); err != nil || ok {
		t.Fatalf("empty store Get: ok=%v err=%v", ok, err)
	}
	want := []byte(`{"result":1}`)
	if err := b.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := b.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if string(got) != string(want) {
		t.Errorf("round trip: got %s want %s", got, want)
	}

	// Stored under the sharded path.
	if _, err := os.Stat(filepath.Join(b.Root(), key[:2], key+".json")); err != nil {
		t.Errorf("sharded file missing: %v", err)
	}

	// Overwrite is fine and idempotent.
	if err := b.Put(key, want); err != nil {
		t.Errorf("overwrite: %v", err)
	}

	if err := b.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.Get(key); ok {
		t.Error("Get after Delete: still present")
	}
	if err := b.Delete(key); err != nil {
		t.Errorf("double Delete: %v", err)
	}

	// Malformed keys are rejected, not turned into path traversal.
	for _, bad := range []string{"", "ab", "../../etc/passwd", "a/b", "a.b.c"} {
		if err := b.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q): want error", bad)
		}
	}
}

func TestDirBackendConcurrentWriters(t *testing.T) {
	b, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, err := Key("k", []byte(`{"x":1}`), 1, "v")
	if err != nil {
		t.Fatal(err)
	}
	val := []byte(`{"deterministic":"payload"}`)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := b.Put(key, val); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				got, ok, err := b.Get(key)
				if err != nil || !ok || string(got) != string(val) {
					t.Errorf("Get: ok=%v err=%v got=%q", ok, err, got)
					return
				}
			}
		}()
	}
	wg.Wait()

	// No stray temp files left behind.
	infos, err := b.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Errorf("entries: got %d want 1", len(infos))
	}
}

func TestStoreStatsAndCounters(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "c"))
	if err != nil {
		t.Fatal(err)
	}
	k1, _ := Key("a", []byte(`{"i":1}`), 1, "v")
	k2, _ := Key("a", []byte(`{"i":2}`), 2, "v")

	if _, ok, err := s.Get(k1); ok || err != nil {
		t.Fatalf("miss expected: ok=%v err=%v", ok, err)
	}
	if err := s.Put(k1, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k2, []byte("01234")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(k1); !ok || err != nil {
		t.Fatalf("hit expected: ok=%v err=%v", ok, err)
	}

	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 2 || st.Bytes != 15 {
		t.Errorf("stats: entries=%d bytes=%d, want 2/15", st.Entries, st.Bytes)
	}
	if got := s.ScrapeSizeBytes(); got != 15 {
		t.Errorf("ScrapeSizeBytes: got %d want 15", got)
	}

	// A re-opened store reads nothing at Open; its first scrape walks
	// the directory.
	s2, err := Open(s.backend.(*DirBackend).Root())
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.ScrapeSizeBytes(); got != 15 {
		t.Errorf("reopened ScrapeSizeBytes: got %d want 15", got)
	}
}

// TestNewStoreReadsNothing checks NewStore does not touch its backend,
// so opening a large cache costs nothing at start.
func TestNewStoreReadsNothing(t *testing.T) {
	if _, err := NewStore(unreadable{}); err != nil {
		t.Fatalf("NewStore over an unreadable backend: %v", err)
	}
}

// unreadable is a Backend whose every method panics.
type unreadable struct{}

func (unreadable) Get(string) ([]byte, bool, error) { panic("Get") }
func (unreadable) Put(string, []byte) error         { panic("Put") }
func (unreadable) Entries() ([]EntryInfo, error)    { panic("Entries") }
func (unreadable) Delete(string) error              { panic("Delete") }

func TestStoreGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Three 10-byte entries with staggered mtimes, oldest first.
	now := time.Now()
	var keys []string
	for i := 0; i < 3; i++ {
		k, _ := Key("gc", []byte(fmt.Sprintf(`{"i":%d}`, i)), uint64(i), "v")
		keys = append(keys, k)
		if err := s.Put(k, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, k[:2], k+".json")
		mt := now.Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}

	// Byte budget of 25 evicts the oldest entry only.
	res, err := s.GC(GCOptions{MaxBytes: 25, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 3 || res.Removed != 1 || res.RemovedBytes != 10 || res.RemainingBytes != 20 {
		t.Errorf("byte GC: %+v", res)
	}
	if _, ok, _ := s.Get(keys[0]); ok {
		t.Error("oldest entry survived byte GC")
	}
	if _, ok, _ := s.Get(keys[2]); !ok {
		t.Error("newest entry evicted by byte GC")
	}

	// Age bound of 90m evicts the remaining 2h-old entry.
	res, err = s.GC(GCOptions{MaxAge: 90 * time.Minute, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 1 || res.RemainingBytes != 10 {
		t.Errorf("age GC: %+v", res)
	}

	// No bounds: no-op.
	res, err = s.GC(GCOptions{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 0 || res.Scanned != 1 {
		t.Errorf("unbounded GC: %+v", res)
	}
}

func TestScrapeSizeBytesRefresh(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(b)
	if err != nil {
		t.Fatal(err)
	}
	key1, _ := Key("cpusim", []byte(`{"a":1}`), 1, "test")
	if err := s.Put(key1, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if got := s.ScrapeSizeBytes(); got != 10 {
		t.Fatalf("after Put: ScrapeSizeBytes=%d want 10", got)
	}

	// A second process writes to the same directory: within the TTL the
	// gauge misses it, a TTL-expired scrape re-walks and catches up.
	key2, _ := Key("cpusim", []byte(`{"a":2}`), 2, "test")
	if err := b.Put(key2, []byte("01234")); err != nil {
		t.Fatal(err)
	}
	// Within the TTL the scrape serves the cached value.
	if got := s.ScrapeSizeBytes(); got != 10 {
		t.Fatalf("scrape within TTL: %d want 10", got)
	}
	s.scrapeTTL = 0 // expire immediately
	if got := s.ScrapeSizeBytes(); got != 15 {
		t.Fatalf("scrape after TTL: %d want 15", got)
	}
}
