#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash benchmark/run.sh --workload serve-zipf --seed 1 --seconds 40 --trace 0
#
# Everything the build writes stays under .bench_build/ in the current
# directory (or $CARGO_TARGET_DIR when set): the Go build cache and the
# binary. The benchmark writes its traced runs' spans to .bench_build/spans.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

go -C benchmark build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
