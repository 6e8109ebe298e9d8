#!/usr/bin/env bash
# Builds the wlansim benchmark from the source tree it sits in and runs it
# with the given arguments. Run it from the repository root:
#
#   bash wlbench/run.sh --workload packet-b24 --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, toolchain config)
# stays under .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export CGO_ENABLED=0
go -C "$root/wlbench" build -o "$out/wlbench" .
exec "$out/wlbench" "$@"
