#!/bin/sh
# Full verification gate: gofmt, vet, build, domain lint (the three
# abivmlint analyzers: zero live findings and no stale lint:ignore
# waivers), race-enabled tests (the analyzers' fixture tests among
# them), the allocation-count tests without the race detector, one
# iteration of every in-package benchmark, the committed RESULTS.txt,
# examples/*/expected.txt and examples/views.dataflow.txt against what
# the code prints, and the nested benchmark module; its last lines are the
# tracked line counts (scripts/loc.sh).
# This is what `make verify` and CI run; it must pass before merging.
# CI's verify job then runs `make fuzz-smoke` (scripts/fuzz_smoke.sh:
# every Fuzz* target for 10s), which is kept out of this script so the
# gate's run time does not grow with the number of fuzz targets.
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

echo "==> abivmlint"
go run ./cmd/abivmlint ./...

# Includes TestChaosTranscripts, the chaos sweeps diffed against their
# committed transcripts (what `make chaos-check` runs alone).
echo "==> go test -race"
go test -race -timeout "${TEST_TIMEOUT:-10m}" ./...

# testing.AllocsPerRun assertions skip themselves under -race (see
# internal/testenv), so the packages that have them run once more without.
echo "==> go test (allocation counts, no race detector)"
go test -run 'Alloc' ./internal/exec ./internal/storage ./internal/pubsub ./internal/ivm ./internal/durable ./internal/dataflow ./internal/policy ./internal/plan

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
