package main

import (
	"strings"
	"testing"
)

// TestMulticoreTable checks a small core-count sweep prints the
// policy table on stdout and the cell summary on stderr.
func TestMulticoreTable(t *testing.T) {
	code, stdout, stderr := runCmd(multicoreCommand, "-cores", "1,2", "-instr", "20000", "-warmup", "5000")
	if code != 0 {
		t.Fatalf("multicore: exit %d: %s", code, stderr)
	}
	if stdout != multicoreTable {
		t.Errorf("multicore printed:\n%s\nwant:\n%s", stdout, multicoreTable)
	}
	if want := "pcs multicore: 6 cells: 0 cached, 6 computed, 0 failed\n"; stderr != want {
		t.Errorf("stderr %q, want %q", stderr, want)
	}
}

// multicoreTable is the table of `pcs multicore -cores 1,2 -instr 20000
// -warmup 5000`: one row per core count and policy.
const multicoreTable = `== Multi-core PCS: gobmk.s on Config A, 20000 instr/core, 10% shared data ==
Cores  Policy    Cycles (max core)  Exec ovh %  L2 misses  Coh. invals  Cache E (mJ)  E saving %
-----  --------  -----------------  ----------  ---------  -----------  ------------  ----------
1      baseline  691236             +0.00       3283       0            0.166         0.0       
1      SPCS      691252             +0.00       3283       0            0.075         54.9      
1      DPCS      691252             +0.00       3283       0            0.075         54.9      
2      baseline  629384             +0.00       5894       282          0.160         0.0       
2      SPCS      629400             +0.00       5894       281          0.073         54.8      
2      DPCS      629400             +0.00       5894       281          0.073         54.8      

`

// TestMulticoreBadCores checks a core count below one is refused.
func TestMulticoreBadCores(t *testing.T) {
	code, stdout, stderr := runCmd(multicoreCommand, "-cores", "0")
	if code != 1 || stdout != "" || !strings.Contains(stderr, `bad core count "0"`) {
		t.Errorf("multicore -cores 0: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
