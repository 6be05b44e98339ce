#!/usr/bin/env bash
# Builds the pipeline benchmark from this checkout's source and runs it.
# Run from the repository root; arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload falcon16-w1 --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters
# in the build directory too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
