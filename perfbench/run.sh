#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload read-point --seed 1 --seconds 26 --trace 0
#
# Every build and run output stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/perfbench" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .) >&2
exec "$build/perfbench/perfbench" "$@"
