#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, from the
# checkout root:
#
#   bash perfbench/run.sh --workload busy-pair --seed 1 --seconds 10 --trace 0
#
# The binary, Go's build cache and its temporary files all live under
# .bench_build in the checkout; nothing is fetched. -trimpath keeps the
# checkout's location out of the binary and the profiles it writes.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
