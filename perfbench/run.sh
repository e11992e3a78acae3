#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache) stays in .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .) >&2
exec "$out/perfbench-bin" "$@"
