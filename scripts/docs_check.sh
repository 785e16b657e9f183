#!/bin/sh
# Documentation drift gate: the repo map in ARCHITECTURE.md must track
# the package tree, and the metric catalogue the registered series.
# Five directions:
#
#   1. Every internal/<pkg> and cmd/<binary> mentioned in
#      ARCHITECTURE.md or README.md must exist — a doc referencing a
#      renamed or deleted package fails the check.
#   2. Every package that exists must be mentioned in ARCHITECTURE.md —
#      a new package landing without a line in the repo map fails the
#      check.
#   3. OPERATIONS.md's metric catalogue (section 2) and the series the
#      code registers — the string-literal first argument of every
#      Counter(/Gauge(/Histogram( call outside tests — must be the same
#      set: a deleted series left in the catalogue fails, and so does a
#      new one an operator cannot look up. A call whose first argument
#      is not a string literal fails too: its name could be anything, so
#      neither the catalogue nor this check could see it.
#   4. Every backticked `Test...` or `Benchmark...` name in DESIGN.md,
#      EXPERIMENTS.md, OPERATIONS.md, README.md or ARCHITECTURE.md must
#      be declared by a `func Test...(` or `func Benchmark...(` in some
#      _test.go file — a doc citing a deleted or renamed test as coverage,
#      or a deleted benchmark as a measurement, fails the check. And
#      EXPERIMENTS.md quotes no "representative run": its numbers come
#      from RESULTS.txt or a committed record.
#   5. DESIGN.md and EXPERIMENTS.md describe the code as it is: a line
#      saying what held "until PR", "before PR" or "since PR" (any case)
#      fails — the history is git's and CHANGES.md's.
#
# Run via `make docs-check` or the CI docs-check job.
set -eu

cd "$(dirname "$0")/.."

fail=0

# Direction 1: doc references must resolve to real directories.
for doc in ARCHITECTURE.md README.md; do
	[ -f "$doc" ] || {
		echo "docs-check: missing $doc"
		fail=1
		continue
	}
	refs=$(grep -oE '(internal|cmd)/[a-z][a-z0-9_]*' "$doc" | sort -u)
	for ref in $refs; do
		if [ ! -d "$ref" ]; then
			echo "docs-check: $doc references $ref, which does not exist"
			fail=1
		fi
	done
done

# Direction 2: every package must appear in the ARCHITECTURE.md repo map.
for dir in internal/*/ cmd/*/; do
	pkg=${dir%/}
	# Skip nested analyzer fixture dirs and the like: only first-level
	# packages belong on the map.
	case "$pkg" in
	*/*/*) continue ;;
	esac
	if ! grep -q "$pkg" ARCHITECTURE.md; then
		echo "docs-check: $pkg is not mentioned in ARCHITECTURE.md"
		fail=1
	fi
done

# Direction 3: catalogue <-> registered series. First, every name must
# be a literal on the call's own line, or the grep below misses it.
dynamic=$(grep -rnE '\.(Counter|Gauge|Histogram)\(([^"]|$)' \
	--include='*.go' --exclude='*_test.go' --exclude-dir=testdata cmd internal || true)
if [ -n "$dynamic" ]; then
	printf '%s\n' "$dynamic" | sed 's/^/docs-check: metric name is not a string literal: /'
	fail=1
fi
# Then a catalogued name is a backticked `<prefix>_<rest>` (optionally
# with a {label} suffix) whose prefix some registered series has;
# `pubsub_sub_*`-style globs name a family, not a series, and are
# skipped.
registered=$(grep -rhoE '\.(Counter|Gauge|Histogram)\("[a-z0-9_]+"' \
	--include='*.go' --exclude='*_test.go' --exclude-dir=testdata cmd internal |
	sed -E 's/.*"([a-z0-9_]+)"/\1/' | sort -u)
prefixes=$(printf '%s\n' "$registered" | cut -d_ -f1 | sort -u | paste -sd'|' -)
catalogued=$(sed -n '/^## 2\. /,/^## 3\. /p' OPERATIONS.md |
	grep -oE "\`($prefixes)_[a-z0-9_]+[\`{]" | tr -d '`{' | sort -u)
[ -n "$registered" ] && [ -n "$catalogued" ] || {
	echo "docs-check: found no registered series or no metric catalogue in OPERATIONS.md section 2"
	fail=1
}
for name in $catalogued; do
	if ! printf '%s\n' "$registered" | grep -qx "$name"; then
		echo "docs-check: OPERATIONS.md's metric catalogue names $name, which no Counter(/Gauge(/Histogram( call registers"
		fail=1
	fi
done
for name in $registered; do
	if ! printf '%s\n' "$catalogued" | grep -qx "$name"; then
		echo "docs-check: $name is registered but missing from OPERATIONS.md's metric catalogue"
		fail=1
	fi
done

# Direction 4: cited tests and benchmarks must exist. A citation is a
# backtick followed by a Test or Benchmark name (a subtest path after it,
# `TestX/case`, names TestX); a trailing `*` (`TestX*`) names a family,
# which some declared name must start.
declared=$(grep -rhoE 'func (Test|Benchmark)[A-Za-z0-9_]+\(' --include='*_test.go' \
	--exclude-dir=.git --exclude-dir=.bench_build . |
	sed -E 's/^func //; s/\($//' | sort -u)
for doc in DESIGN.md EXPERIMENTS.md OPERATIONS.md README.md ARCHITECTURE.md; do
	[ -f "$doc" ] || continue
	set -f # a family's `*` is a pattern for grep, not for the shell
	for name in $(grep -oE '`(Test|Benchmark)[A-Za-z0-9_]+\*?' "$doc" | tr -d '`' | sort -u); do
		case "$name" in
		*'*') pattern="^${name%'*'}" ;;
		*) pattern="^$name\$" ;;
		esac
		if ! printf '%s\n' "$declared" | grep -q "$pattern"; then
			echo "docs-check: $doc cites $name, which no _test.go declares"
			fail=1
		fi
	done
	set +f
done
if grep -n 'representative run' EXPERIMENTS.md; then
	echo "docs-check: EXPERIMENTS.md quotes a representative run; cite RESULTS.txt or a committed BENCH_*.json record"
	fail=1
fi

# Direction 5: no history narration in the design and experiment docs.
if grep -niE '\b(until|before|since) PRs?\b' DESIGN.md EXPERIMENTS.md; then
	echo "docs-check: DESIGN.md or EXPERIMENTS.md narrates history; say what the code does now"
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	echo "docs-check: FAILED — update ARCHITECTURE.md/README.md to match the package tree, OPERATIONS.md to match the registered series, the docs to cite tests and benchmarks that exist"
	exit 1
fi
echo "docs-check: OK"
