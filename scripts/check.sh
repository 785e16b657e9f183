#!/bin/sh
# Full verification gate: gofmt, vet, build, the one-calibration-seam
# guard (no ivm.New outside the engine, the broker's classic engine and
# probe, and the benchmark), domain lint (the three abivmlint analyzers:
# zero live findings and no stale lint:ignore waivers; the JSON report is
# left in abivmlint.json), race-enabled tests (the analyzers' fixture
# tests among them), the allocation-count tests without the race detector, one
# iteration of every in-package benchmark, the committed RESULTS.txt,
# examples/*/expected.txt and examples/views.dataflow.txt against what
# the code prints, the docs check (scripts/docs_check.sh) and the nested
# benchmark module; its last lines are the tracked line counts
# (scripts/loc.sh).
# This is what `make verify` and CI's verify job run; it must pass before
# merging. CI's verify job then runs `make fuzz-smoke`
# (scripts/fuzz_smoke.sh: every Fuzz* target for 10s), which is kept out
# of this script so the gate's run time does not grow with the number of
# fuzz targets; serve-smoke, compile-smoke and disk-chaos are CI jobs of
# their own.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -l lists:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

# One calibration seam: outside the engine, the broker's classic engine
# and probe, and the benchmark a view's maintainer comes from
# pubsub.NewProbe, never from ivm.New, so every measurement counts the
# work the broker's drains count.
echo "==> no hand-built maintainer"
built=$(grep -rn 'ivm\.New(' --include='*.go' . | grep -v '_test\.go' |
	grep -v -e '^\./internal/ivm/' -e '^\./internal/pubsub/classic\.go:' -e '^\./internal/pubsub/probe\.go:' \
		-e '^\./benchmark/' -e '^\./\.bench_build/' || true)
if [ -n "$built" ]; then
	echo "ivm.New outside internal/ivm, internal/pubsub/{classic,probe}.go and benchmark (use pubsub.NewProbe):" >&2
	echo "$built" >&2
	exit 1
fi

# The docs name only code that exists: OPERATIONS.md's metric catalogue,
# ARCHITECTURE.md's repo map, cited tests, methods and flags.
echo "==> docs check"
sh scripts/docs_check.sh

# The JSON report (live findings, waivers with their reasons, counts) is
# written either way, for CI to publish; a live finding or a stale
# waiver still fails the gate, and its findings are printed here.
echo "==> abivmlint"
if ! go run ./cmd/abivmlint -json ./... > abivmlint.json; then
	echo "abivmlint live findings (full report in abivmlint.json):" >&2
	sed -n '/^  "findings": \[/,/^  \],/p' abivmlint.json >&2
	exit 1
fi

# Includes TestChaosTranscripts, the chaos sweeps diffed against their
# committed transcripts (what `make chaos-check` runs alone).
echo "==> go test -race"
go test -race -timeout "${TEST_TIMEOUT:-10m}" ./...

# testing.AllocsPerRun assertions skip themselves under -race (see
# internal/testenv), so the packages whose tests call
# testenv.NeedsAllocCounts run once more without, selected by -run
# 'Alloc'. Such a Test function must have Alloc in its name, or that run
# never reaches it.
alloc_files=$(grep -rl 'testenv\.NeedsAllocCounts(' --include='*_test.go' . | grep -v -e '^\./benchmark/' -e '^\./\.bench_build/' | sort)
# shellcheck disable=SC2086 # alloc_files is a word list
alloc_pkgs=$(for f in $alloc_files; do dirname "$f"; done | sort -u)
echo "==> every allocation-count test is in the run without the race detector"
# shellcheck disable=SC2086 # alloc_files is a word list
unreached=$(awk '
	FNR == 1 { name = "" }
	/^func / { name = $2; sub(/\(.*/, "", name) }
	/testenv\.NeedsAllocCounts\(/ && name ~ /^Test/ && name !~ /Alloc/ {
		print FILENAME ":" FNR ": " name " calls testenv.NeedsAllocCounts without Alloc in its name"
	}
' $alloc_files)
if [ -n "$unreached" ]; then
	echo "$unreached" >&2
	exit 1
fi
echo "==> go test (allocation counts, no race detector)"
# shellcheck disable=SC2086 # alloc_pkgs is a word list
go test -run 'Alloc' $alloc_pkgs

# The in-package benchmarks run once each, so a change that breaks their
# set-up fails here and not when they are next measured.
echo "==> go test -bench (one iteration each)"
go test -run '^$' -bench . -benchtime 1x ./internal/...

echo "==> RESULTS.txt is what the engine prints"
make results-check

echo "==> the examples print their expected.txt and compiled plans"
make examples-check

# The benchmark is a nested module (its own go.mod, replace => ../), so
# the ./... patterns above never reach it: a refactor of ivm, storage or
# durable that breaks its build would otherwise surface only when the
# benchmark is next run. Read-only use — build, vet, test, one toy-size
# run with its checks on.
echo "==> benchmark module (vet, tests, quick run)"
(cd benchmark && go vet ./... && go test -timeout "${TEST_TIMEOUT:-10m}" ./...)
bash benchmark/run.sh -quick

echo "OK"
# Informational, never a failure: the size ROADMAP item 5 tracks, so every
# PR's record of this gate carries it.
sh scripts/loc.sh
