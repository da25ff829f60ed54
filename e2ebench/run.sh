#!/usr/bin/env bash
# End-to-end ikrqd benchmark: build the daemon and the harness from source,
# then run one workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload mall-distinct --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache included), so a fresh checkout needs
# nothing but the Go toolchain.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/bin" "$work/gocache" "$work/tmp"
export GOCACHE="$work/gocache"
export GOTMPDIR="$work/tmp"
export GOPATH="$work/gopath"
export GOTOOLCHAIN=local

go build -o "$work/bin/ikrqd" ./cmd/ikrqd
(cd e2ebench && go build -o "$work/bin/e2ebench" .)
exec "$work/bin/e2ebench" -ikrqd "$work/bin/ikrqd" -work "$work" "$@"
