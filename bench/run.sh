#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json "command"): builds the
# benchmark inside the checkout — Go's build cache included, so nothing is
# written outside it — and runs it from the checkout root with the driver's
# arguments (--workload NAME --seed N --seconds S --trace 0|1).
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/go-cache" GOTOOLCHAIN=local
go build -C bench -o ../.bench_build/galo-bench .
exec .bench_build/galo-bench "$@"
