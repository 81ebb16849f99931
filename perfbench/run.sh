#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -o "$build/perfbench" . >&2
# Not exec: the benchmark must be a fresh child so that its RUSAGE_CHILDREN
# peak covers its own worker processes only, not the compiler above.
"$build/perfbench" -dir "$build" "$@"
