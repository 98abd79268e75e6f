#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper-single --seed 1000 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# traced runs' span files all stay under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
