#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Run from the root of a checkout: bash bench/run.sh --workload
# tp1_terminal --seed 1 --seconds 16 --trace 0
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/tmfbench" .)
exec "$build/tmfbench" "$@"
