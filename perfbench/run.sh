#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload sim-inmem --seed 1003 --seconds 25 --trace 0
# Run from the repository root. Everything the build and the run write,
# including the Go build cache and temporary files, stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --root "$here" --state "$out/state" "$@"
