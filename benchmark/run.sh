#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Everything the build and the run write — build cache,
# binary, temporary WALs, traces — stays inside the checkout, under
# .bench_build/ and benchmark/out/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C benchmark -o "$build/gridrep-benchmark" .
exec "$build/gridrep-benchmark" "$@"
