package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/resultstore"
)

// TestCacheCommand checks `pcs cache` on a two-entry store, that both
// actions refuse a missing store, naming it, without creating it, and
// that a bad flag after either action is a usage error (exit 2) that
// is reported once.
func TestCacheCommand(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	st, err := resultstore.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	for key, data := range map[string]string{"aa01": "0123456789", "bb02": "01234567890123456789"} {
		if err := st.Put(key, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	missing := filepath.Join(t.TempDir(), "nosuch")
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string
		stderr string // a substring stderr must hold
	}{
		{"stats", []string{"stats", "-cache", store}, 0, "cache " + store + ": 2 entries, 30 bytes\n", ""},
		{"gc under bound", []string{"gc", "-cache", store, "-max-bytes", "1000"}, 0,
			"cache " + store + ": scanned 2, removed 0 entries (0 bytes), 30 bytes remain\n", ""},
		{"stats missing", []string{"stats", "-cache", missing}, 1, "", missing},
		{"gc missing", []string{"gc", "-cache", missing, "-max-bytes", "10"}, 1, "", missing},
		{"gc no bound", []string{"gc", "-cache", store}, 1, "", "gc needs -max-bytes and/or -max-age"},
		{"stats bad flag", []string{"stats", "-bogus"}, 2, "", "flag provided but not defined: -bogus"},
		{"gc bad flag", []string{"gc", "-cache", store, "-bogus"}, 2, "", "flag provided but not defined: -bogus"},
		{"gc over bound", []string{"gc", "-cache", store, "-max-bytes", "1"}, 0,
			"cache " + store + ": scanned 2, removed 2 entries (30 bytes), 0 bytes remain\n", ""},
	} {
		code, stdout, stderr := runCmd(stdoutOnly(cacheCommand), tc.args...)
		if code != tc.code || stdout != tc.stdout || tc.stderr != "" && strings.Count(stderr, tc.stderr) != 1 {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit %d, stdout %q, stderr holding %q once",
				tc.name, code, stdout, stderr, tc.code, tc.stdout, tc.stderr)
		}
	}
	if _, err := os.Stat(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a cache action on a missing store created it: stat error %v", err)
	}
}
