#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source with
# every build output (binary, compiler cache, temporary files) inside the
# checkout's .bench_build directory, then runs it with the arguments given:
#
#   bash bench/run.sh --workload steady-refetch --seed 1 --seconds 8 --trace 0
#
# `go run ./bench …` does the same with the toolchain's default cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
export GOPATH="${GOPATH:-$build/gopath}"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
