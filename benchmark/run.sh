#!/usr/bin/env bash
# The command BENCHMARK.json names: build the harness from source inside the
# checkout, then run it with the driver's arguments. Everything the build
# and the run write (Go build cache, temp files, binary, results, scratch
# state) stays under .bench_build/ and benchmark/out/ of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: the program's source is not beside benchmark/: nothing to measure" >&2
	exit 2
fi
root=$PWD
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o .bench_build/alidrone-benchmark ./benchmark
exec .bench_build/alidrone-benchmark "$@"
