#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload fig4|cold|cached --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in
# the repository root: the Go build cache, the binary, the run's scratch
# space (removed when the run ends) and the traced run's spans file.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# -buildvcs=false: the checkout need not be a repository, and a parent
# one must not decide whether the build succeeds.
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" "$@"
