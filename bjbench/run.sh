#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash bjbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# Every build and scratch file stays under .bench_build/ in the checkout
# root: the Go build cache, the binary, the serve workload's state and cache
# dirs (via TMPDIR) and the traced run's Chrome trace. The build never
# touches the network; without the simulator's sources next to this
# directory it fails and the script exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export TMPDIR="$out/tmp"

(cd "$root/bjbench" && go build -o "$out/bjbench" .)
cd "$root"
exec "$out/bjbench" -trace-dir "$out" "$@"
