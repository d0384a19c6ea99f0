#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh <fixed args from BENCHMARK.json> \
#       --workload capacity --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and every file a run writes stay
# under .bench_build/ in the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/snperf" .)
exec "$out/snperf" -work-dir "$out" "$@"
