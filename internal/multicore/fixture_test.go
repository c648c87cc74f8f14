package multicore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/core"
)

// TestResultFixtures pins the SHA-256 of json.Marshal(Result) for every
// mode on a 4-core Config A run (20k warm-up plus 100k measured
// instructions per core, seed 1). The digests cover each core's private
// L1 fault maps and the shared L2's, and the global clock the L2 policy
// reads, so a wrong level RNG stream or clock advance moves them.
func TestResultFixtures(t *testing.T) {
	for _, fx := range []struct {
		mode   core.Mode
		sha256 string
	}{
		{core.Baseline, "c44c84108c90e424eb9cc322bd9f0a502f86fdd8fec7eea3ecf1467528b2e79b"},
		{core.SPCS, "f7f3d449416bf2c3d35d01b1fdb2aea23fe6f9404d13a12614c80166686ed875"},
		{core.DPCS, "6dbdf2bbc960bba4d27ffe42f1caf1f7f5baee4e4fa13bd7c1568a4172e8c826"},
	} {
		r, err := Run(smallConfig(4), fx.mode, testWorkload(), 20_000, 100_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != fx.sha256 {
			t.Errorf("%v: result digest %s, want %s", fx.mode, got, fx.sha256)
		}
	}
}
