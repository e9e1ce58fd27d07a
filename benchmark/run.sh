#!/usr/bin/env bash
# Builds the benchmark from the checkout's own source and runs it. Everything
# the build and the run write — the go build cache, the binary, the derived
# configuration, the stores — stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
