package mechanism

// The standard registry: the paper's Fig. 3 comparison set (Default)
// plus the TS-Cache and L2C2 competitors. Rank encodes the paper's
// presentation order — yield/summary tables list rank-ascending
// (Conventional … Proposed), capacity/power tables rank-descending
// (Proposed first). Versions participate in content-addressed cache
// keys (resultstore): bump a Version whenever that model's numbers
// change.
func init() {
	MustRegister(Descriptor{
		Name: "conventional", Label: "Conventional", ShortLabel: "Conv",
		Version: "2", Rank: 10, Default: true, Yields: true,
		Summary: "no fault tolerance: one faulty cell kills the cache",
		New:     newConventional,
	})
	MustRegister(Descriptor{
		Name: "secded", Label: "SECDED", ShortLabel: "SECDED",
		Version: "2", Rank: 20, Default: true, Yields: true,
		Summary: "SECDED ECC per 2-byte subblock (1 correctable bit)",
		New:     newSECDED,
	})
	MustRegister(Descriptor{
		Name: "dected", Label: "DECTED", ShortLabel: "DECTED",
		Version: "2", Rank: 30, Default: true, Yields: true,
		Summary: "DECTED ECC per 2-byte subblock (2 correctable bits)",
		New:     newDECTED,
	})
	MustRegister(Descriptor{
		Name: "waygate", Label: "Way gating", ShortLabel: "WayGate",
		Version: "1", Rank: 40, Default: true, Steps: true,
		Summary: "gate whole ways at nominal VDD (linear power/capacity)",
		New:     newWayGate,
	})
	MustRegister(Descriptor{
		Name: "fftcache", Label: "FFT-Cache", ShortLabel: "FFT",
		Version: "1", Rank: 50, Default: true, Scales: true, Yields: true,
		Summary: "remap faulty subblocks onto sacrificial blocks (CASES'11)",
		New:     newFFTCache,
	})
	MustRegister(Descriptor{
		Name: "tscache", Label: "TS-Cache", ShortLabel: "TS",
		Version: "1", Rank: 60, Scales: true, Yields: true,
		Summary: "timing speculation + replay; only hard faults cost capacity",
		New:     newTSCache,
	})
	MustRegister(Descriptor{
		Name: "l2c2", Label: "L2C2", ShortLabel: "L2C2",
		Version: "1", Rank: 70, Scales: true, Yields: true,
		Summary: "salvage faulty blocks by compressing lines into fault-free subblocks",
		New:     newL2C2,
	})
	MustRegister(Descriptor{
		Name: "proposed", Label: "Proposed", ShortLabel: "Proposed",
		Version: "1", Rank: 100, Default: true, Scales: true, Yields: true,
		Summary: "the paper's PCS scheme: gate faulty blocks, compressed fault map",
		New:     newProposed,
	})
}
