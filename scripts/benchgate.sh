#!/usr/bin/env sh
# benchgate.sh — A/B simulator-throughput regression gate. Builds the
# root package's test binary twice, from the working tree (the change)
# and from a base commit, then runs interleaved pairs of
# BenchmarkSimulatorThroughput at -cpu 1 on this host, alternating which
# side runs first, so the host's speed and load cancel out of the
# comparison. The base is HEAD when the tree has changes, else HEAD~1;
# in CI's pull_request checkout HEAD~1 is the merge commit's first
# parent, the target branch (CI checks out with fetch-depth: 2). Fails
# when the median per-pair ns/op ratio (change/base) exceeds 1.10, when
# the change's median B/op or allocs/op exceeds the base's by more than
# 20 %, or when the base cannot be built.
#
# Sizing: on a shared 2-vCPU Xeon VM one pair of 5-iteration runs of
# the same binary reads anywhere in 0.75–1.5, so the gate takes the
# median of many short pairs. At 40 pairs, ten runs on an unchanged
# tree read 0.97–1.04 and ten runs against a step loop slowed by ~15 %
# read 1.12–1.20.
set -eu
cd "$(dirname "$0")/.."
PAIRS=40
BENCHTIME=5x
NSMAX=1.10
MEMMAX=1.20

if [ -n "$(git status --porcelain)" ]; then
	base=HEAD
else
	base=HEAD~1
fi
if ! rev=$(git rev-parse --verify --quiet "$base^{commit}"); then
	echo "benchgate: FAIL — base $base is not in this checkout" >&2
	exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$rev" | tar -x -C "$tmp/base"
if ! (cd "$tmp/base" && go test -c -o "$tmp/base.test" .); then
	echo "benchgate: FAIL — cannot build the base $base ($rev)" >&2
	exit 1
fi
go test -c -o "$tmp/change.test" .

# bench <side>: one run of the side's binary from its own tree, appended
# to $tmp/<side>.txt as "ns/op B/op allocs/op".
bench() {
	dir=.
	if [ "$1" = base ]; then
		dir="$tmp/base"
	fi
	(cd "$dir" && "$tmp/$1.test" -test.run '^$' -test.bench 'BenchmarkSimulatorThroughput$' \
		-test.benchtime "$BENCHTIME" -test.cpu 1 -test.benchmem -test.timeout 5m) |
		awk '/^BenchmarkSimulatorThroughput/ {
			for (i = 3; i <= NF; i++) {
				if ($i == "ns/op") ns = $(i - 1)
				if ($i == "B/op") b = $(i - 1)
				if ($i == "allocs/op") a = $(i - 1)
			}
			print ns, b, a
		}' >> "$tmp/$1.txt"
}

# median: the median of the numbers on stdin.
median() {
	sort -g | awk '{ v[NR] = $1 } END {
		printf "%.10g\n", NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
	}'
}

echo "benchgate: change = working tree, base = $base ($(git rev-parse --short "$rev")), $PAIRS pairs of $BENCHTIME at -cpu 1"
i=0
while [ "$i" -lt "$PAIRS" ]; do
	if [ $((i % 2)) -eq 0 ]; then
		bench base
		bench change
	else
		bench change
		bench base
	fi
	i=$((i + 1))
done
for side in base change; do
	if [ "$(grep -c . "$tmp/$side.txt")" -ne "$PAIRS" ]; then
		echo "benchgate: FAIL — $side runs did not all report ns/op, B/op and allocs/op" >&2
		exit 1
	fi
done

col() { cut -d ' ' -f "$2" "$tmp/$1.txt" | median; }
for side in base change; do
	echo "benchgate: $side medians: $(col $side 1) ns/op, $(col $side 2) B/op, $(col $side 3) allocs/op"
done
ratios=$(paste -d ' ' "$tmp/base.txt" "$tmp/change.txt" | awk '{ printf "%.3f\n", $4 / $1 }')
echo "benchgate: per-pair ns/op ratios:" $ratios

# gate <label> <ratio> <bound>: fail if ratio exceeds bound.
fail=0
gate() {
	if awk -v r="$2" -v max="$3" 'BEGIN { exit !(r > max) }'; then
		echo "benchgate: FAIL — $1 change/base $2 exceeds $3"
		fail=1
	else
		echo "benchgate: $1 change/base $2 (bound $3)"
	fi
}
gate 'median ns/op ratio' "$(printf '%s\n' $ratios | median)" "$NSMAX"
gate 'B/op' "$(awk -v b="$(col base 2)" -v c="$(col change 2)" 'BEGIN { printf "%.3f", c / b }')" "$MEMMAX"
gate 'allocs/op' "$(awk -v b="$(col base 3)" -v c="$(col change 3)" 'BEGIN { printf "%.3f", c / b }')" "$MEMMAX"
if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "benchgate: OK"
