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
		{core.Baseline, "842f7bb89d7b8fdbee471082ce6edca34f0fde58c657f4253cd287e9ce8762f3"},
		{core.SPCS, "88901b711cf921775c7ec4c76b9eeb3d2b2961592c4c9e420c25c65cac2016a8"},
		{core.DPCS, "2822fb7a3d7a0388f6f8ec4804c77db8354027b8adc93f6f7c523bee51c45852"},
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
