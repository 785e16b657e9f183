#!/bin/sh
# Documentation drift gate: the repo map in ARCHITECTURE.md must track
# the package tree, and the metric catalogue the registered series.
# Seven directions:
#
#   1. Every internal/<pkg> and cmd/<binary> mentioned in
#      ARCHITECTURE.md or README.md must exist — a doc referencing a
#      renamed or deleted package fails the check.
#   2. Every package that exists must be mentioned in ARCHITECTURE.md —
#      a new package landing without a line in the repo map fails the
#      check.
#   3. OPERATIONS.md's metric catalogue (section 2) and the series the
#      code registers or reports — the string-literal first argument of
#      every Counter(/Gauge(/Histogram( call outside tests — must be the
#      same set: a deleted series left in the catalogue fails, and so
#      does a new one an operator cannot look up. A call whose first
#      argument is not a string literal fails too: its name could be
#      anything, so neither the catalogue nor this check could see it.
#      And a counter's name ends in _total while a gauge's or a
#      histogram's does not, so the suffix tells a dashboard the type.
#   4. Every backticked `Test...`, `Benchmark...` or `Fuzz...` name in
#      DESIGN.md, EXPERIMENTS.md, OPERATIONS.md, README.md or
#      ARCHITECTURE.md, and every such name in a // comment of a .go file
#      outside benchmark/ (a module that changes only with the benchmark
#      itself), must be declared by a `func Test...(`, `func
#      Benchmark...(` or `func Fuzz...(` in some _test.go file — a doc or
#      comment citing a deleted or renamed test as coverage, or a deleted
#      benchmark as a measurement, fails the check. And EXPERIMENTS.md
#      quotes no "representative run": its numbers come from RESULTS.txt
#      or a committed record.
#   5. DESIGN.md and EXPERIMENTS.md describe the code as it is: a line
#      saying what held "until PR", "before PR", "since PR", "through
#      PR" or "after PR" (any case) fails — the history is git's and
#      CHANGES.md's.
#   6. A backticked `T.m` or `pkg.T.m` in DESIGN.md, ARCHITECTURE.md,
#      OPERATIONS.md, README.md or EXPERIMENTS.md whose T is a type
#      declared in non-test Go must name a method, a field or an
#      interface method of T — a doc citing a deleted or renamed member
#      fails the check. A file name (`node.go`) is not a citation.
#   7. Every flag README.md or OPERATIONS.md documents for `abivm` must
#      exist: each `-flag` on an `abivm <cmd> ...` or
#      `go run ./cmd/abivm <cmd> ...` line, and each `-flag` row of a
#      flag table (attributed to the subcommand of the last such line
#      above it), must be defined by <cmd>'s FlagSet in
#      cmd/abivm/<cmd>.go or by the top-level flag set in main.go. A doc
#      showing a deleted or renamed flag fails the check.
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
calls=$(grep -rhoE '\.(Counter|Gauge|Histogram)\("[a-z0-9_]+"' \
	--include='*.go' --exclude='*_test.go' --exclude-dir=testdata cmd internal |
	sed -E 's/^\.([A-Za-z]+)\("([a-z0-9_]+)"/\1 \2/' | sort -u)
misnamed=$(printf '%s\n' "$calls" | awk '
	$1 == "Counter" && $2 !~ /_total$/ { print $2 " is a counter not named *_total" }
	$1 != "Counter" && $2 ~ /_total$/ { print $2 " is a " tolower($1) " named *_total" }')
if [ -n "$misnamed" ]; then
	printf '%s\n' "$misnamed" | sed 's/^/docs-check: /'
	fail=1
fi
registered=$(printf '%s\n' "$calls" | cut -d' ' -f2 | sort -u)
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

# Direction 4: cited tests and benchmarks must exist. A citation in a
# doc is a backtick followed by a Test, Benchmark or Fuzz name (a subtest
# path after it, `TestX/case`, names TestX); in a .go comment it is such
# a name, a capital letter after its prefix. A trailing `*` (`TestX*`)
# names a family, which some declared name must start.
declared=$(grep -rhoE 'func (Test|Benchmark|Fuzz)[A-Za-z0-9_]+\(' --include='*_test.go' \
	--exclude-dir=.git --exclude-dir=.bench_build . |
	sed -E 's/^func //; s/\($//' | sort -u)
citations=$(
	for doc in DESIGN.md EXPERIMENTS.md OPERATIONS.md README.md ARCHITECTURE.md; do
		[ -f "$doc" ] || continue
		grep -oE '`(Test|Benchmark|Fuzz)[A-Za-z0-9_]+\*?' "$doc" | tr -d '`' | sort -u | sed "s|^|$doc |"
	done
	grep -rnoE '//.*' --include='*.go' --exclude-dir=.git --exclude-dir=.bench_build \
		--exclude-dir=testdata --exclude-dir=benchmark . |
		grep -oE '^[^:]+:[0-9]+:|(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*\*?' |
		awk '/:$/ { at = substr($0, 3, length($0) - 3); next } { print at, $0 }'
)
set -f # a family's `*` is a pattern for grep, not for the shell
stale=$(printf '%s\n' "$citations" | while read -r where name; do
	[ -n "$name" ] || continue
	case "$name" in
	*'*') pattern="^${name%'*'}" ;;
	*) pattern="^$name\$" ;;
	esac
	if ! printf '%s\n' "$declared" | grep -q "$pattern"; then
		echo "docs-check: $where cites $name, which no _test.go declares"
	fi
done)
set +f
if [ -n "$stale" ]; then
	printf '%s\n' "$stale"
	fail=1
fi
if grep -n 'representative run' EXPERIMENTS.md; then
	echo "docs-check: EXPERIMENTS.md quotes a representative run; cite RESULTS.txt or a committed BENCH_*.json record"
	fail=1
fi

# Direction 5: no history narration in the design and experiment docs.
if grep -niE '\b(until|before|since|through|after) PRs?\b' DESIGN.md EXPERIMENTS.md; then
	echo "docs-check: DESIGN.md or EXPERIMENTS.md narrates history; say what the code does now"
	fail=1
fi

# Direction 6: cited members must exist. members lists every type
# declared in non-test Go as `T`, and each of its methods, struct fields
# (an embedded one under its type's name) and interface methods as `T.m`,
# over every package that declares a T.
members=$(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' \
	! -path './.bench_build/*' ! -path '*/testdata/*' -exec awk '
	/^type [A-Za-z_][A-Za-z0-9_]* / {
		t = $2; print t
		body = ($3 == "struct" || $3 == "interface") && $4 == "{"
		next
	}
	body && /^}/ { body = 0; next }
	body && /^\t[A-Za-z_*]/ {
		line = $0; sub(/^\t/, "", line); sub(/\/\/.*/, "", line)
		if (match(line, /^[A-Za-z_][A-Za-z0-9_]*\(/)) {
			print t "." substr(line, 1, RLENGTH - 1); next
		}
		if (line ~ /^\*?[A-Za-z_][A-Za-z0-9_.]*[ \t]*$/) {
			sub(/^\*/, "", line); sub(/[ \t]*$/, "", line); sub(/.*\./, "", line)
			print t "." line; next
		}
		n = split(line, names, /,[ \t]*/)
		for (i = 1; i < n; i++) print t "." names[i]
		sub(/[ \t].*/, "", names[n]); print t "." names[n]
		next
	}
	/^func \(/ {
		recv = $0; sub(/^func \([^)]*[ *]/, "", recv)
		if (recv ~ /^func \(/) { recv = $0; sub(/^func \(\*?/, "", recv) }
		name = recv; sub(/[[)].*/, "", recv)
		sub(/^[^)]*\) /, "", name); sub(/[[(].*/, "", name)
		print recv "." name
	}' {} + | sort -u)
for doc in DESIGN.md ARCHITECTURE.md OPERATIONS.md README.md EXPERIMENTS.md; do
	[ -f "$doc" ] || continue
	for ref in $(grep -oE '`([a-z][a-z0-9]*\.)?[A-Za-z_][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]*`' "$doc" | tr -d '`' | grep -v '\.go$' | sort -u); do
		set -- $(printf '%s\n' "$ref" | tr '.' ' ')
		if [ $# -eq 3 ] && printf '%s\n' "$members" | grep -qx "$2"; then
			shift
		fi
		printf '%s\n' "$members" | grep -qx "$1" || continue
		if ! printf '%s\n' "$members" | grep -qx "$1\.$2"; then
			echo "docs-check: $doc cites $ref, but $1 has no method or field $2"
			fail=1
		fi
	done
done

# Direction 7: documented CLI flags must exist. The awk prints one
# "doc:line cmd -flag" per documented flag: a command is what follows
# "abivm " up to the end of its code span, a comment or shell
# punctuation ($(...) substitutions dropped), its subcommand the first
# bare lower-case word (flags before it are top-level ones).
top=$(grep -oE 'flag\.[A-Za-z0-9]+\("[A-Za-z0-9-]+"' cmd/abivm/main.go | sed -E 's/.*"(.*)"/\1/')
documented=$(awk '
	/^\| `-[A-Za-z][A-Za-z0-9-]*`/ {
		f = $0; sub(/^\| `/, "", f); sub(/`.*/, "", f)
		print FILENAME ":" FNR " " cmd " " f
		next
	}
	{
		line = $0
		while (match(line, /(^|[ `(\/])abivm( |$)/)) {
			line = substr(line, RSTART + RLENGTH)
			seg = line
			gsub(/\$\([^)]*\)/, "", seg)
			if (match(seg, /[`|;&#<>]/)) seg = substr(seg, 1, RSTART - 1)
			n = split(seg, tok, /[ \t]+/)
			c = ""
			for (i = 1; i <= n && c == ""; i++) if (tok[i] ~ /^[a-z][a-z0-9]*$/) c = tok[i]
			if (c != "") cmd = c
			for (i = 1; i <= n; i++) if (tok[i] ~ /^-[A-Za-z][A-Za-z0-9-]*(=.*)?$/) {
				f = tok[i]; sub(/=.*/, "", f)
				print FILENAME ":" FNR " " c " " f
			}
		}
	}' README.md OPERATIONS.md)
stale=$(printf '%s\n' "$documented" | while read -r where cmd f; do
	[ -n "$f" ] || continue
	defined=$top
	if [ -n "$cmd" ] && [ -f "cmd/abivm/$cmd.go" ]; then
		defined="$defined
$(grep -oE 'fs\.[A-Za-z0-9]+\("[A-Za-z0-9-]+"' "cmd/abivm/$cmd.go" | sed -E 's/.*"(.*)"/\1/')"
	fi
	if ! printf '%s\n' "$defined" | grep -qx -- "${f#-}"; then
		echo "docs-check: $where documents abivm ${cmd:-(top level)} $f, which no flag set defines"
	fi
done)
if [ -n "$stale" ]; then
	printf '%s\n' "$stale"
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	echo "docs-check: FAILED — update ARCHITECTURE.md/README.md to match the package tree, OPERATIONS.md to match the registered series, the docs and comments to cite tests, benchmarks, members and abivm flags that exist, counters to be named *_total"
	exit 1
fi
echo "docs-check: OK"
