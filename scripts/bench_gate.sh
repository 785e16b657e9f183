#!/bin/sh
# Benchmark regression gate: re-runs the durability benchmarks and
# compares ns/op and allocs/op against the committed baseline label, in
# the newest BENCH_*.json that holds it, via cmd/benchgate, failing on a
# >15% regression (see that command's doc for the noise rationale).
#
# The iteration count is pinned (-benchtime=300x) because these
# benchmarks run a workload whose tables grow across iterations: their
# per-op cost depends on b.N, so only fixed-count runs are comparable.
# The committed "gate-baseline" label is recorded with the same pin.
#
# Usage: scripts/bench_gate.sh [-file FILE] [-base LABEL] [-max N]
set -eu

cd "$(dirname "$0")/.."

file=""
base="gate-baseline"
max=15
while [ $# -gt 0 ]; do
	case "$1" in
	-file)
		file=$2
		shift
		;;
	-base)
		base=$2
		shift
		;;
	-max)
		max=$2
		shift
		;;
	*)
		echo "usage: scripts/bench_gate.sh [-file FILE] [-base LABEL] [-max N]" >&2
		exit 2
		;;
	esac
	shift
done
if [ -z "$file" ]; then
	# The newest history file that holds the base label wins (the dated
	# names sort by date): perf PRs add BENCH_<date>.json files with
	# labels of their own, and those must not hide the gate's baseline.
	file=$(grep -l "\"label\": \"$base\"" BENCH_*.json | sort | tail -n 1)
	if [ -z "$file" ]; then
		echo "bench_gate: no BENCH_*.json holds a run labeled \"$base\"" >&2
		exit 1
	fi
fi

go test -run '^$' -bench 'BenchmarkCheckpointHeavy|BenchmarkDrainHotPath|BenchmarkWALFileAppend|BenchmarkDiskRecovery' -benchmem -benchtime=300x . |
	go run ./cmd/benchgate -file "$file" -base "$base" -max-regress "$max"
