#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it
# with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload paper13 --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and every temporary file (the cluster
# workload's archive and WAL) stay under .bench_build/ at the checkout
# root. Exits non-zero without output from the benchmark when the
# program's sources are not next to it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/benchmark" && go build -o "$out/erbenchmark" .)
exec "$out/erbenchmark" "$@"
