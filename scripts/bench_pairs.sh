#!/bin/sh
# Alternating parent/change pairs of the steady-state benchmark: the
# protocol ROADMAP asks of every PR that claims (or must not lose) wall-
# clock performance. One run of each side per pair, the order flipped from
# pair to pair so drift of the machine lands on both sides alike; then,
# per end-to-end metric, the two medians, the two spreads (interquartile
# range), in how many pairs the change was the better one, and the status
# `benchmark/run.sh compare` gives the two sides against the metric's
# BENCHMARK.json bound. A claim holds when the change wins at least nine
# pairs of ten and its median is better by more than the parent's spread.
#
# Usage: scripts/bench_pairs.sh <parent-rev> [-workload W] [-pairs N] [-seed N]
#
#   <parent-rev>  commit to compare against (HEAD~1, a hash, a tag); its
#                 committed files are unpacked with `git archive` under
#                 .bench_build/pairs/ and built there by its own
#                 benchmark/run.sh — nothing is checked out or registered
#                 in the repository
#   -workload     one of BENCHMARK.json's workloads (default fanout-shared),
#                 or `all`: every workload BENCHMARK.json names, in its
#                 order, one table each
#   -pairs        number of pairs per workload (default 10)
#   -seed         the benchmark's input seed (default 1); a claim tuned on
#                 one seed is checked on another
#
# The change side is the working tree as it stands, uncommitted edits
# included. Every run is `benchmark/run.sh --workload W --seed N`, so both
# sides see the same input; a content hash or failure count that differs
# between any two runs fails the script. What the tables print is also
# written, as the record a PR commits, to
# BENCH_<utc-date>-<workload>-seed<N>.json in the repository root: the
# environment (nproc, GOMAXPROCS, Go version, parent and change commits,
# whether the tree was dirty), and per workload and end-to-end metric each
# side's median and quartiles, the pair wins, the bound and the status.
# Reads benchmark/ and BENCHMARK.json, writes that record and, besides it,
# only under .bench_build/.
set -eu

cd "$(dirname "$0")/.."
root=$(pwd)

usage() {
	echo "usage: scripts/bench_pairs.sh <parent-rev> [-workload W] [-pairs N] [-seed N]" >&2
	exit 2
}

[ $# -ge 1 ] || usage
rev=$1
shift
workload=fanout-shared
pairs=10
seed=1
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case "$1" in
	-workload) workload=$2 ;;
	-pairs) pairs=$2 ;;
	-seed) seed=$2 ;;
	*) usage ;;
	esac
	shift 2
done

sha=$(git rev-parse --verify "$rev^{commit}")
change=$(git rev-parse HEAD)
dirty=false
[ -z "$(git status --porcelain)" ] || dirty=true
record=BENCH_$(date -u +%Y-%m-%d)-$workload-seed$seed.json
parent=$root/.bench_build/pairs/src-$sha
if [ ! -d "$parent" ]; then
	mkdir -p "$parent.tmp"
	git archive "$sha" | tar -x -C "$parent.tmp"
	mv "$parent.tmp" "$parent"
fi

# The names in BENCHMARK.json's "workloads" list, in file order.
workloads=$workload
if [ "$workload" = all ]; then
	workloads=$(awk '/"workloads":/ { on = 1 } on && /^  \]/ { on = 0 }
		on && $1 == "\"name\":" { gsub(/[",]/, "", $2); print $2 }' BENCHMARK.json)
	[ -n "$workloads" ] || { echo "bench_pairs: no workloads in BENCHMARK.json" >&2; exit 1; }
fi

# run <side> <dir> <pair>: one benchmark run from dir, its report kept.
run() {
	echo "$workload pair $3/$pairs: $1" >&2
	(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$seed") >"$out/$1-$3.txt"
}

# measure runs the pairs of $workload and prints its table.
measure() {
	out=$root/.bench_build/pairs/$workload
	rm -rf "$out"
	mkdir -p "$out"
	i=1
	while [ "$i" -le "$pairs" ]; do
		if [ $((i % 2)) -eq 1 ]; then
			run parent "$parent" "$i"
			run change "$root" "$i"
		else
			run change "$root" "$i"
			run parent "$parent" "$i"
		fi
		i=$((i + 1))
	done

	# Same input, same answers: every run must report one content hash and
	# one failure count.
	if [ "$(grep -h '^== ' "$out"/*.txt | sed 's/.* failed=\([0-9]*\).* hash=\([0-9a-f]*\).*/\1 \2/' | sort -u | wc -l)" -ne 1 ]; then
		echo "bench_pairs: runs disagree on failures or content hash:" >&2
		grep -H '^== ' "$out"/*.txt >&2
		exit 1
	fi

	# Each side's runs as one record of `benchmark compare`: the JSON line
	# each run ends with, tagged with its workload. compare exits 1 when a
	# row regressed; its rows are read below either way.
	for side in parent change; do
		{
			printf '{"runs":['
			sep=
			for f in "$out/$side"-*.txt; do
				printf '%s' "$sep"
				sep=,
				tail -n 1 "$f" | sed "s/^{/{\"workload\":\"$workload\",/"
			done
			echo ']}'
		} >"$out/$side.json"
	done
	bash benchmark/run.sh compare "$out/parent.json" "$out/change.json" >"$out/compare.txt" || [ $? -eq 1 ]

	echo "== $workload seed=$seed: $pairs alternating pairs, parent $(git rev-parse --short "$sha") vs working tree"
	# The report's metric lines are "   name   value unit  (raw ...)"; the
	# direction and bound of each metric come from BENCHMARK.json, the
	# status from compare's row for (workload, metric).
	awk -v pairs="$pairs" -v dir="$out" -v workload="$workload" '
function sorted(src, n, dst,    a, b, t) {
	for (a = 1; a <= n; a++) dst[a] = src[a]
	for (a = 2; a <= n; a++)
		for (b = a; b > 1 && dst[b-1] > dst[b]; b--) { t = dst[b]; dst[b] = dst[b-1]; dst[b-1] = t }
}
function quantile(s, n, q,    pos, lo) {
	pos = 1 + (n - 1) * q; lo = int(pos)
	if (lo >= n) return s[n]
	return s[lo] + (pos - lo) * (s[lo+1] - s[lo])
}
function quartiles(s, n) {
	return sprintf("{\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g}", quantile(s, n, 0.5), quantile(s, n, 0.25), quantile(s, n, 0.75))
}
FILENAME == "BENCHMARK.json" {
	if ($1 == "\"name\":") { gsub(/[",]/, "", $2); name = $2 }
	if ($1 == "\"better\":") { gsub(/[",]/, "", $2); better[name] = $2 }
	if ($1 == "\"bound\":") { gsub(/[",]/, "", $2); bound[name] = $2 }
	next
}
FILENAME ~ /compare\.txt$/ {
	if ($1 == workload) status[$2] = $NF
	next
}
/^   [a-z0-9_]+ +[-0-9.]+ / {
	side = FILENAME; sub(/.*\//, "", side); pair = side
	sub(/-.*/, "", side); sub(/.*-/, "", pair); sub(/\.txt$/, "", pair)
	if (!($1 in seen)) { seen[$1] = 1; order[++metrics] = $1; unit[$1] = $3 }
	val[side, $1, pair + 0] = $2 + 0
}
END {
	printf "%-20s %14s %14s %8s %12s %12s %6s  %-7s %s\n", "metric", "parent median", "change median", "delta", "parent iqr", "change iqr", "wins", "unit", "status"
	frag = dir "/record.json"
	printf "{\"workload\": \"%s\", \"metrics\": [", workload > frag
	for (m = 1; m <= metrics; m++) {
		name = order[m]; wins = 0
		for (p = 1; p <= pairs; p++) {
			a[p] = val["parent", name, p]; b[p] = val["change", name, p]
			if (better[name] == "higher" ? b[p] > a[p] : b[p] < a[p]) wins++
		}
		sorted(a, pairs, sa); sorted(b, pairs, sb)
		ma = quantile(sa, pairs, 0.5); mb = quantile(sb, pairs, 0.5)
		st = status[name]
		printf "%-20s %14.4f %14.4f %+7.1f%% %12.4f %12.4f %3d/%-2d  %-7s %s\n", name, ma, mb, (ma ? 100 * (mb - ma) / ma : 0),
			quantile(sa, pairs, 0.75) - quantile(sa, pairs, 0.25), quantile(sb, pairs, 0.75) - quantile(sb, pairs, 0.25), wins, pairs, unit[name], st
		printf "%s\n  {\"metric\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", \"bound\": %s, \"parent\": %s, \"change\": %s, \"wins\": %d, \"status\": \"%s\"}",
			(m > 1 ? "," : ""), name, unit[name], better[name], bound[name], quartiles(sa, pairs), quartiles(sb, pairs), wins, st > frag
	}
	print "]}" > frag
}' BENCHMARK.json "$out/compare.txt" "$out"/parent-*.txt "$out"/change-*.txt
	echo "reports kept in ${out#"$root"/}/"
}

for workload in $workloads; do
	measure
done

# The record: the environment the change side ran in (its report's first
# line), then one entry per workload.
env_line=$(head -n 1 "$out/change-1.txt")
field() { printf '%s\n' "$env_line" | sed -n "s/.*$1=\([^ ]*\).*/\1/p"; }
{
	printf '{\n"env": {"nproc": %s, "gomaxprocs": %s, "go_version": "%s", "parent": "%s", "change": "%s", "dirty": %s},\n' \
		"$(field nproc)" "$(field GOMAXPROCS)" "$(field go)" "$sha" "$change" "$dirty"
	printf '"seed": %s,\n"pairs": %s,\n"workloads": [\n' "$seed" "$pairs"
	sep=
	for workload in $workloads; do
		printf '%s' "$sep"
		sep=,
		cat "$root/.bench_build/pairs/$workload/record.json"
	done
	echo ']'
	echo '}'
} >"$record"
echo "wrote $record"
