#!/bin/bash
# Builds the benchmark from source and runs it; every argument goes to
# the program. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload fanout-classic --seed 1 --seconds 18 --trace 0
#   bash benchmark/run.sh -quick
#   bash benchmark/run.sh compare A.json B.json
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build in the checkout, so a run reads and writes nothing
# outside it. The benchmark is a nested module that imports the
# repository's internal packages through a replace directive, so the
# build fails, and this script exits non-zero, when the repository is not
# there.
set -eu
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOMODCACHE=$build/gomod
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$here" -o "$build/abivm-bench" .
exec "$build/abivm-bench" "$@"
