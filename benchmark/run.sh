#!/usr/bin/env bash
# Build file and entry point of the benchmark: builds ./benchmark from the
# checkout's source and runs it with the arguments given. Everything the
# build and the run write stays inside the checkout, under .bench_build/
# (Go build cache, binary, temporary data and result directories).
#
#   bash benchmark/run.sh --workload tao_read --seed 1 --seconds 24 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod beside benchmark/: the benchmark builds from a full checkout" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/lgbenchmark" ./benchmark
export TMPDIR="$build/tmp"
exec "$build/lgbenchmark" "$@"
