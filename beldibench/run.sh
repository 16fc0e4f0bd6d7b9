#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build (toolchain caches
# included) and runs it with the given flags, from the repository root:
#
#   bash beldibench/run.sh --workload travel-mem --seed 1 --seconds 10 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off
(cd "$here" && go build -o "$out/beldibench" .) >&2
exec "$out/beldibench" --out "$out/out" "$@"
