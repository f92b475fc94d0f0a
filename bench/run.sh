#!/bin/bash
# The benchmark's command: builds bench/ from the checkout it stands in and
# runs it with the arguments given.
#
#   bash bench/run.sh --workload hot-point --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (Go's build cache, its work directories, the
# binary) goes to .bench_build/ in the checkout, which .gitignore names, so
# the benchmark reads and writes nothing outside its checkout. exec leaves the
# benchmark as the one process of the run: its exit code is the run's, and
# whoever stops the run stops the benchmark itself, not a parent of it.
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
