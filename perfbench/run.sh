#!/bin/sh
# Builds the benchmark from source into .bench_build and runs one workload:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache included, stays in .bench_build
# at the root of the checkout. The build needs the tero module one
# directory up; without it the build fails and no result is printed.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
