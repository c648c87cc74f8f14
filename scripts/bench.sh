#!/usr/bin/env sh
# bench.sh — archive a benchmark snapshot and compare it to the most
# recent previous one. Runs every benchmark (the figure pipelines in the
# root bench_test.go, the policy-tick hot path, the metrics registry)
# with allocation stats, writes the test2json stream to a new
# BENCH_<date>.json (never clobbering an existing snapshot: a second
# run the same day becomes BENCH_<date>.2.json, then .3, …), and prints
# the ns/op deltas versus the previous snapshot via benchcmp.sh. The
# previous snapshot is the last by version-sorted name: a fresh
# checkout gives every snapshot the same mtime.
#
# BENCHTIME (default 1x) and BENCHCOUNT (default 1) are passed to
# `go test -benchtime/-count` and recorded in a bench_meta line at the
# top of the snapshot, so benchcmp.sh can flag a comparison of a 1x
# smoke run against a steady-state one: ns/op from a single cold
# iteration and from a multi-second warm run are different quantities.
# BENCHTIME=2s BENCHCOUNT=3 gives steady-state numbers with a best-of
# across the counts. bench_meta also records the host's CPU count, the
# GOMAXPROCS the benchmarks ran at and the git revision measured.
set -eu
cd "$(dirname "$0")/.."
BENCHTIME=${BENCHTIME:-1x}
BENCHCOUNT=${BENCHCOUNT:-1}

prev=$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1 || true)
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
nproc=$(nproc)
rev=$(git describe --always --dirty 2>/dev/null || echo unknown)
printf '{"bench_meta":{"benchtime":"%s","count":%s,"nproc":%s,"gomaxprocs":%s,"rev":"%s"}}\n' \
	"$BENCHTIME" "$BENCHCOUNT" "$nproc" "${GOMAXPROCS:-$nproc}" "$rev" > "$tmp"
go test -run '^$' -bench . -benchtime "$BENCHTIME" -count "$BENCHCOUNT" -benchmem -json \
	. ./internal/core >> "$tmp"

out="BENCH_$(date +%Y%m%d).json"
i=2
while [ -e "$out" ]; do
	out="BENCH_$(date +%Y%m%d).${i}.json"
	i=$((i + 1))
done
cp "$tmp" "$out"
echo "wrote $out"

if [ -n "$prev" ]; then
	echo "comparison vs $prev (negative delta = faster):"
	sh scripts/benchcmp.sh "$prev" "$out"
fi
