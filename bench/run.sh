#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash bench/run.sh --workload report-tcp --seed 1 --seconds 24 --trace 0
#
# This is the command BENCHMARK.json names. Everything the build and the
# run write stays inside the checkout: the Go build cache and the binary
# go to .bench_build/ (unless GOCACHE already points somewhere), spans to
# bench/out/. `go run ./bench` does the same job for a person at a shell.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build=.bench_build
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$PWD/$build/gocache}"
# The toolchain in the image is the one to use; never fetch another.
export GOTOOLCHAIN=local
go build -o "$build/ew-bench" ./bench
exec "$build/ew-bench" "$@"
