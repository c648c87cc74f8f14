package resultstore

import "testing"

// KeyFixtures pin the content-addressed key derivation to known hex
// values. The key function is the store's wire format: a change here
// silently orphans every cached cell on disk, so any intentional change
// to the derivation must update these fixtures in the same commit and
// state that the cache is being invalidated. Exported for the fuzz
// corpus in canonical_test.go.
var KeyFixtures = []struct {
	Name   string
	Kind   string
	Params string
	Seed   uint64
	Ver    string
	Want   string
}{
	{
		Name:   "mechminvdd proposed v1",
		Kind:   "mechminvdd",
		Params: `{"org":"l1a","mechanism":"proposed","mech_version":"1","n_low_vdds":2,"yield":0.99,"v_min":0.3,"v_max":1}`,
		Seed:   1,
		Ver:    "v0",
		Want:   "ae9b8f3d4f7dd8773571d6470e4f776d533a64543bea48d9b3991a2d964af63d",
	},
	{
		Name:   "minvdd geometry cell",
		Kind:   "minvdd",
		Params: `{"size_bytes":32768,"ways":4,"block_bytes":64}`,
		Seed:   1,
		Ver:    "v0",
		Want:   "063fe2619376800b12959a8c8c6b5d566b09bd6c363a168b94df77ed75e7d5e6",
	},
	{
		Name:   "empty params",
		Kind:   "cpusim",
		Params: `{}`,
		Seed:   7,
		Ver:    "dev",
		Want:   "678b548782786f0d2c77d4866937930ebb91c410e3ece764f30756da18edf40c",
	},
	{
		// A whole fig4-cell document as expers.Fig4CellParams marshals
		// it: nested SystemConfig objects in declaration order.
		Name:   "fig4-cell config A dpcs",
		Kind:   "fig4-cell",
		Params: `{"config":{"Name":"A","ClockHz":2000000000,"L1I":{"Org":{"Name":"L1I-A","SizeBytes":65536,"Assoc":4,"BlockBytes":64,"AddrBits":40,"SerialTagData":false},"HitCycles":2,"Interval":100000,"VoltagePenaltyCycles":20},"L1D":{"Org":{"Name":"L1D-A","SizeBytes":65536,"Assoc":4,"BlockBytes":64,"AddrBits":40,"SerialTagData":false},"HitCycles":2,"Interval":100000,"VoltagePenaltyCycles":20},"L2":{"Org":{"Name":"L2-A","SizeBytes":2097152,"Assoc":8,"BlockBytes":64,"AddrBits":40,"SerialTagData":true},"HitCycles":4,"Interval":10000,"VoltagePenaltyCycles":20},"MemCycles":200,"MLPOverlap":0,"SuperInterval":10,"LowThreshold":0.02,"HighThreshold":0.03,"Ablate":{"NoHoldLatch":false,"NoBadLevelMemory":false,"NoRefillClassification":false,"NoSkipReset":false}},"mode":"dpcs","bench":"mcf","warmup_instr":200000,"sim_instr":1000000,"seed":1}`,
		Seed:   1,
		Ver:    "v0",
		Want:   "eadb80ce590e432760cb0de6ebeaa43a4b9b4c2938eb6e6fe7c235a118374c69",
	},
}

// TestKeyGoldenFixtures checks Key against every fixture.
func TestKeyGoldenFixtures(t *testing.T) {
	for _, c := range KeyFixtures {
		got, err := Key(c.Kind, []byte(c.Params), c.Seed, c.Ver)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if got != c.Want {
			t.Errorf("%s: key = %s, want %s (key derivation changed — this orphans every stored result)",
				c.Name, got, c.Want)
		}
	}
}

// TestKeyMechVersionBump checks the mechanism-version pin does its job
// at the store layer: a mechminvdd params document differing only in
// mech_version must miss the cache (different key), while a
// field-reordered but semantically identical document must hit.
func TestKeyMechVersionBump(t *testing.T) {
	v1 := `{"org":"l1a","mechanism":"proposed","mech_version":"1","n_low_vdds":2,"yield":0.99,"v_min":0.3,"v_max":1}`
	v1reordered := `{"mech_version":"1","mechanism":"proposed","n_low_vdds":2,"org":"l1a","v_max":1,"v_min":0.3,"yield":0.99}`
	v2 := `{"org":"l1a","mechanism":"proposed","mech_version":"2","n_low_vdds":2,"yield":0.99,"v_min":0.3,"v_max":1}`

	k1, err := Key("mechminvdd", []byte(v1), 1, "v0")
	if err != nil {
		t.Fatal(err)
	}
	kr, err := Key("mechminvdd", []byte(v1reordered), 1, "v0")
	if err != nil {
		t.Fatal(err)
	}
	if kr != k1 {
		t.Error("field order changed the key: canonicalisation is broken")
	}
	k2, err := Key("mechminvdd", []byte(v2), 1, "v0")
	if err != nil {
		t.Fatal(err)
	}
	if k2 == k1 {
		t.Error("mech_version bump did not miss the cache: stale mechanism results would be served")
	}
	if k2 != "e5f7fc89acfc492b60157f8190be8008cdc046a7109195576479cca8474156af" {
		t.Errorf("bumped-version key = %s drifted from its fixture", k2)
	}
}
