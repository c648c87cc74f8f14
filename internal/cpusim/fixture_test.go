package cpusim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// resultFixtures pins the SHA-256 of json.Marshal(Result) for every mode
// on both configurations and two SPEC-like workloads, 50k warm-up plus
// 300k measured instructions at seed 1. Every DPCS cell makes L1I and L2
// transitions in that window, so a wrong level RNG stream, initial
// transition or decision schedule moves a digest.
var resultFixtures = []struct {
	config string
	bench  string
	mode   core.Mode
	sha256 string
}{
	{"A", "mcf.s", core.Baseline, "65b3b43d6c6af25c435f84fb539536b2072fee74c1c95a01b853278104755682"},
	{"A", "mcf.s", core.SPCS, "6db6da77c05e70f813f76dea88660991886879252aa48198aba7f67fe619c6e9"},
	{"A", "mcf.s", core.DPCS, "5aff1d651ce8c888c62f250a4c27859dd7b39cc39e2fd5d930d4e0c648e6b835"},
	{"A", "bzip2.s", core.Baseline, "f441de1acea8d5fe37ded7d25f357f12674ac9ed3f6fdf0a3d09fc1e6891d834"},
	{"A", "bzip2.s", core.SPCS, "320888631cf5e3e57e7c454377c53e35ed19b166995868713f3ab066d2ed1ab4"},
	{"A", "bzip2.s", core.DPCS, "f27bd9c73e506200ad31e00cb1a087ed8679a2234aafccc7632f3f2c8fd9882e"},
	{"B", "mcf.s", core.Baseline, "3753281db1dd109340ab10569063775b6ba0d7f0b18b8b6db9bae8c4b6874967"},
	{"B", "mcf.s", core.SPCS, "b45b98c6202f40b23b4e29760a233cd9be2f4d71c8b64a6f616a1d6d2d3a6806"},
	{"B", "mcf.s", core.DPCS, "ac2015ec79412fb9e823ba75ccc46b24cc8598a119ec82209f59b19ec9c4d2a4"},
	{"B", "bzip2.s", core.Baseline, "d3ab665495ccc04c25ca191101ceb572e9f74fcf2f77e571eaa4cd7bebcfa8d0"},
	{"B", "bzip2.s", core.SPCS, "add47ef3988b50e3b9bb4392a32a265f5705ee6717565a80d1487ceb1162cb9e"},
	{"B", "bzip2.s", core.DPCS, "b8119f6243ede5be2e9ed7e726c042e37c0649a60e5b6729de17ea25caacd605"},
}

func TestResultFixtures(t *testing.T) {
	opts := RunOptions{WarmupInstr: 50_000, SimInstr: 300_000, Seed: 1}
	for _, fx := range resultFixtures {
		cfg, err := ConfigByName(fx.config)
		if err != nil {
			t.Fatal(err)
		}
		w, ok := trace.ByName(fx.bench)
		if !ok {
			t.Fatalf("unknown workload %s", fx.bench)
		}
		r, err := Run(cfg, fx.mode, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if fx.mode == core.DPCS && (r.L1I.Transitions == 0 || r.L2.Transitions == 0) {
			t.Errorf("%s/%s/%v: L1I %d and L2 %d transitions, want both > 0",
				fx.config, fx.bench, fx.mode, r.L1I.Transitions, r.L2.Transitions)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != fx.sha256 {
			t.Errorf("%s/%s/%v: result digest %s, want %s", fx.config, fx.bench, fx.mode, got, fx.sha256)
		}
	}
}
