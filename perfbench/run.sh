#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload bulk-io --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything it writes (the Go
# build cache, the binary, the cluster's data directory and the span
# dump) stays under .bench_build, or under $CARGO_TARGET_DIR when set.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out/perfbench-work" "$@"
