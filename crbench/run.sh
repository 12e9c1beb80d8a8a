#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash crbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build and run artifact stays under
# .bench_build/ in the root: the Go build cache, the binary, scratch
# cache directories and the traced run's span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/crbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=readonly
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"

(cd "$root/crbench" && go build -o "$out/crbench" .)
exec "$out/crbench" "$@"
