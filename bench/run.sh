#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
# Run from the repository root:
#
#   bash bench/run.sh --workload grid-high --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/ (or $CARGO_TARGET_DIR when set): the Go build cache, the
# binary and the temporary directories of the service workload and the
# microbenchmarks. The benchmark is its own module (bench/go.mod) that
# builds against the repository through a replace directive, so outside a
# full checkout the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOFLAGS=
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

go -C "$root/bench" build -o "$out/pracbench" .
exec "$out/pracbench" "$@"
