#!/usr/bin/env sh
# CI gate: formatting, vet, then the full test suite under the race
# detector so the campaign runner's worker pool (internal/runner,
# internal/expers campaign tests) is exercised with -race.
set -eu
cd "$(dirname "$0")/.."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go vet ./...
go build ./...
go test -race ./...

# Hot-path allocation regression gates: a cache demand access and a
# steady-state DPCS policy tick must stay at 0 allocs/op, and the
# batched simulator inner loop must simulate a whole block without heap
# allocation.
go test -count=1 -run 'TestAccessZeroAllocs' ./internal/cache
go test -count=1 -run 'TestPolicyTickZeroAllocs' ./internal/core
go test -count=1 -run 'TestBlockLoopZeroAllocs' ./internal/cpusim

# Server metrics gates: /metrics, computed at scrape time from the
# server's campaign records, must render fixed records as the golden
# exposition (families, order, HELP/TYPE, buckets, formatting), and a
# campaign re-run against a result store must count only done jobs
# that consulted the store as hits or misses.
go test -count=1 -run 'TestMetricsExpositionGolden|TestMetricsCacheOutcomes' ./internal/runner

# Tick-gate inlining gate (DESIGN.md §12.2): the per-access policy gate,
# core.(*Controller).Due, must be inlined at every hot-path site of the
# one demand path, cpusim.Core — Step x2, accessFull and accessL2 — so
# a policy's Tick is only an interface call at a scheduled decision.
# multicore runs that path and must keep no tick gate of its own.
check_due_inlined() {
	n=$(go build -gcflags=-m "./internal/$1" 2>&1 | grep -c 'inlining call to core.(\*Controller).Due' || true)
	if [ "$n" -ne "$2" ]; then
		echo "internal/$1: Controller.Due inlined at $n sites, want $2" >&2
		exit 1
	fi
}
check_due_inlined cpusim 4
check_due_inlined multicore 0

# Tracing gates (DESIGN.md §7, §11): the span API must cost nothing when
# a campaign has nowhere to put spans (nil-tracer fast path); recording
# a job span with its full attribute set to spans.jsonl must allocate
# at most 4 times, and a DPCS tick that records its one dpcs.decision
# instant at most 3; a campaign that records spans (8 workers, a run
# directory) must write results.jsonl byte-identical to the records of
# one that does not (1 worker, no directory, no sink); and a traced
# DPCS run's instants must reconcile exactly with the controllers' and
# policies' counters, inside the phase-span taxonomy.
go test -count=1 -run 'TestTracingOffZeroAllocs' ./internal/obs/tracez
go test -count=1 -run 'TestJobSpanAllocs' ./internal/runner
go test -count=1 -run 'TestDecisionInstantAllocs' ./internal/core
go test -count=1 -run 'TestTracingDoesNotChangeResults' ./internal/runner
go test -count=1 -run 'TestTimelineReconciliation|TestPhaseSpans' ./internal/cpusim

# Arena/memo gates (DESIGN.md §13): analytical cells must stay at
# <= 10 allocs/op once the memo layer is warm, warm (arena-reused)
# campaign output must be byte-identical to cold at every worker count,
# and the memo table must serve concurrent readers race-free.
go test -count=1 -run 'TestAnalyticalSteadyStateAllocs' ./internal/expers
go test -count=1 -run 'TestArenaDifferential' ./internal/expers
go test -count=1 -race -run 'TestTableConcurrentReads' ./internal/memo

# Mechanism-registry gates (DESIGN.md §14): every registered mechanism
# must surface in the Fig. 3 comparison surfaces its capability flags
# promise, the "mechs" study must cover the registry, the default set
# must add no extra tables, the default selection must print the
# analytical golden byte for byte (in process, through pcs analytical),
# and the adapters must reproduce the pre-registry model call paths
# float-for-float.
go test -count=1 -run 'TestRegistryCompleteness|TestMechStudyCoversRegistry|TestDefaultSetAddsNoTables' ./internal/expers
go test -count=1 -run 'TestAnalyticalGolden|TestAnalyticalUnknownMechanism' ./cmd/pcs
go test -count=1 -run 'TestAdapterDifferential' ./internal/mechanism

# Min-VDD search gates (DESIGN.md §5, §14): faultmodel.MinVDD bisects
# the 10 mV grid, so it returns what a scan up the grid returns only if
# no model's yield or capacity falls as VDD rises. Yield and capacity of
# faultmodel.Model over 1 KB-64 MB x 1-64 ways x 16-128 B, and yield,
# capacity and static power of every registered mechanism on the four
# Table-2 organisations, must never fall; every min-VDD solver must
# match the scan at every target, and the search itself must match it
# on random bounds and predicates, bisect, and allocate nothing.
go test -count=1 -run 'TestModelMonotoneInVoltage|TestMinVDDMatchesScan|TestMinVDDBisection' ./internal/faultmodel
go test -count=1 -run 'TestRegistryPhysicsProperties' ./internal/mechanism
go test -count=1 -run 'TestYieldMonotoneInVoltage|TestTailAboveKEdges' ./internal/ecc

# Store-key gate (DESIGN.md §10.1): the key fixtures must not move, the
# single-pass canonicalizer must match the decode/re-marshal reference
# on the fuzz seed corpus (key fixtures, examples/*.json params, fig4
# cells, boundary quirks, the nesting limit), input that is not one
# JSON value must be refused, and canonicalizing a fixture must
# allocate only its output.
go test -count=1 -run 'TestKeyGoldenFixtures|TestKeyMechVersionBump|FuzzCanonicalJSON|TestCanonicalJSONErrors|TestCanonicalJSONAllocs' ./internal/resultstore

# Ledger gate (DESIGN.md §10.2): the specs digest of a fixed job array
# must not move, and `pcs verify` must accept a fresh run directory and
# refuse one whose specs were edited.
go test -count=1 -run 'TestSpecsDigestFixture' ./internal/ledger
go test -count=1 -run 'TestVerifyRunDir' ./cmd/pcs

# One canonicalization per spec (DESIGN.md §10.2), under the race
# detector: the canonical specs built at campaign set-up must give the
# store keys, the specs digest and the manifest lines that marshalling
# and canonicalizing the job array gives, including in a 4-worker
# campaign with a store and a run directory, and every ledger line
# must equal the two-step marshal's. Then VerifyDir's fuzz seed corpus:
# an edited run directory, in either manifest layout, is refused or
# keeps results.jsonl and the canonical specs unchanged.
go test -count=1 -race -run 'TestCanonicalSpecsMatchMarshal|TestCanonicalSpecsRefuseNonValues|TestCampaignCanonicalSpecs' ./internal/runner
go test -count=1 -race -run 'TestAppendMatchesTwoStepMarshal|TestCanonicalSpecsDigest' ./internal/ledger
go test -count=1 -run 'FuzzVerifyDir' ./internal/runner

# Spec-decoder gate: the seed corpus of the one decoder behind -spec and
# POST /campaigns (round-trip documents plus examples/*.json) must
# decode without panics and re-encode to a fixed point.
go test -count=1 -run 'FuzzDecode|TestRoundTripStability' ./internal/config

# Campaign-cell throughput smoke: one cold and one warm pass of the
# mixed grid so the end-to-end cells/sec benchmark stays runnable; the
# archived numbers come from `make bench`.
go test -run '^$' -bench 'BenchmarkCampaignCellThroughput' -benchtime 1x . > /dev/null

# Short-mode benchmark smoke run: one iteration of every benchmark so a
# crashing or pathologically slow benchmark fails the gate; timings are
# not archived here (that is `make bench`).
go test -short -run '^$' -bench . -benchtime 1x -benchmem . ./internal/core > /dev/null

# Throughput regression gate: an A/B run of the simulator benchmark on
# this host, the working tree against its base commit; fails when the
# median ns/op ratio exceeds 1.10, when B/op or allocs/op grow more than
# 20 %, or when the base cannot be built (see benchgate.sh).
sh scripts/benchgate.sh
