#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload cold-search --seed 1 --seconds 10 --trace 0
#
# Everything it writes (the Go build cache, the binary, the runs' WAL
# directories) stays under .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
export PERFBENCH_WORK="$out/work"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
