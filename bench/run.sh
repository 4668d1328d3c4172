#!/bin/sh
# The driver's entry point (BENCHMARK.json "command"), run from the root of a
# checkout. It keeps the Go build cache inside the checkout, so that a run
# reads and writes nowhere else and needs no HOME, then hands every argument
# to the benchmark.
set -e
: "${GOCACHE:=$PWD/.bench_build/go-build}"
export GOCACHE
exec go run ./bench "$@"
