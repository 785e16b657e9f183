#!/bin/sh
# Benchmark harness: runs the bench suite with -benchmem and records
# ns/op, B/op and allocs/op (plus custom metrics) into a JSON history
# file via cmd/benchjson, so every perf PR leaves a comparable data
# point behind.
#
# Usage: scripts/bench.sh [-quick] [-label NAME] [-out FILE] [-bench REGEX] [-benchtime T]
#
#   -quick   CI smoke mode: one iteration of the headline benches only
#   -label   run label inside the JSON (default: local)
#   -out     history file (default: BENCH_<utc-date>.json)
#   -bench   benchmark regex for full mode (default: .)
#   -benchtime  go test -benchtime for full mode, e.g. 300x (default: go's)
set -eu

cd "$(dirname "$0")/.."

label=local
out=""
pattern="."
benchtime=""
quick=0
while [ $# -gt 0 ]; do
	case "$1" in
	-quick) quick=1 ;;
	-label)
		label=$2
		shift
		;;
	-out)
		out=$2
		shift
		;;
	-bench)
		pattern=$2
		shift
		;;
	-benchtime)
		benchtime="-benchtime=$2"
		shift
		;;
	*)
		echo "usage: scripts/bench.sh [-quick] [-label NAME] [-out FILE] [-bench REGEX] [-benchtime T]" >&2
		exit 2
		;;
	esac
	shift
done
if [ -z "$out" ]; then
	out="BENCH_$(date -u +%Y-%m-%d).json"
fi
if [ "$quick" -eq 1 ]; then
	# One iteration of the headline benches: enough for CI to catch gross
	# regressions (and keep an artifact trail) without a long job. The two
	# shared-graph benchmarks are here so their set-up code runs in CI, not
	# only compiles (each alternative of the pattern is split at its own /).
	# BenchmarkIndexAsymmetry is the drain's fixed cost in model units: its
	# pseudo-ms/batch metric repeats exactly and moves only with the charges.
	pattern='BenchmarkFig6VaryRefresh|BenchmarkAStarSearch$|BenchmarkVectorKey|BenchmarkGreedyActionSet|BenchmarkIndexAsymmetry|BenchmarkSharedDataflow|BenchmarkDataflowTrim/rows=1000$'
	benchtime='-benchtime=1x'
fi

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
# shellcheck disable=SC2086 # benchtime intentionally word-splits away when empty
go test -run '^$' -bench "$pattern" -benchmem $benchtime . ./internal/core ./internal/pubsub ./internal/dataflow | tee "$tmp"
go run ./cmd/benchjson -label "$label" -out "$out" <"$tmp"
echo "recorded -> $out"
