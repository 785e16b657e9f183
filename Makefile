GO ?= go
# Every test invocation carries a timeout so a hung test (deadlocked
# retry loop, stuck worker pool) fails the run instead of wedging it.
TEST_TIMEOUT ?= 10m

.PHONY: build test race lint lint-json vet verify results-check examples-check chaos-check fuzz-smoke bench-pairs serve-smoke compile-smoke docs-check loc

build:
	$(GO) build ./...

test:
	$(GO) test -timeout $(TEST_TIMEOUT) ./...

race:
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./...

lint:
	$(GO) run ./cmd/abivmlint ./...

# lint-json writes the machine-readable findings report (live findings,
# suppressions with their reasons, per-analyzer counts) to
# abivmlint.json; the exit status still fails on any live finding, so
# the report is written either way but the target only passes clean.
lint-json:
	$(GO) run ./cmd/abivmlint -json ./... > abivmlint.json

vet:
	$(GO) vet ./...

# verify is the merge gate: everything CI runs, in one command.
verify:
	sh scripts/check.sh

# results-check fails when the committed figures lag the engine that
# produces them: `abivm all` is deterministic, so RESULTS.txt must equal
# its output byte for byte. A change that moves a charged work unit
# regenerates it with `go run ./cmd/abivm all > RESULTS.txt`.
results-check:
	$(GO) run ./cmd/abivm all | diff - RESULTS.txt

# examples-check gates the library facade's numbers the same way: both
# examples are deterministic, so each must print its committed
# expected.txt byte for byte. A change that means to move them
# regenerates it with `go run ./examples/<name> > examples/<name>/expected.txt`.
# It also diffs the example catalog's compiled plans, shared-dataflow
# operators and arrangements included, so a change of plan shape shows
# as a reviewable diff; regenerate with
# `go run ./cmd/abivm compile -dataflow -catalog examples/views.sql > examples/views.dataflow.txt`.
examples-check:
	$(GO) run ./examples/quickstart | diff - examples/quickstart/expected.txt
	$(GO) run ./examples/warehouse | diff - examples/warehouse/expected.txt
	$(GO) run ./cmd/abivm compile -dataflow -catalog examples/views.sql | diff - examples/views.dataflow.txt

# chaos-check gates the seeded fault-injection sweep the same way:
# TestChaosTranscripts runs the three `abivm chaos -seed 1` sweeps
# (-runs 50, -runs 50 -checkpoint 0, -runs 10 -shards 2), each seed
# through every recovery variant, and diffs them against their
# transcripts under cmd/abivm/testdata/chaos byte for byte, fault counts
# included. A change that means to move a fault schedule regenerates
# one with `go run ./cmd/abivm chaos -seed 1 <flags> > <file>`.
chaos-check:
	$(GO) test -count=1 -timeout $(TEST_TIMEOUT) -run '^TestChaosTranscripts$$' ./cmd/abivm

# fuzz-smoke runs every native fuzz target (the SQL front end, the
# decoders of snapshots, checkpoint segments, WAL frames and the
# MANIFEST, and the key codec) for 10s each from its committed seed
# corpus.
fuzz-smoke:
	sh scripts/fuzz_smoke.sh

# bench-pairs runs the wall-clock protocol of a perf PR: alternating
# parent/change runs of one benchmark/ workload, medians and spreads per
# end-to-end metric. PARENT=rev (default HEAD~1), WORKLOAD=name (default
# fanout-shared; `all` runs every workload BENCHMARK.json names, one
# table each), PAIRS=n (default 10), SEED=n (the input seed, default 1).
bench-pairs:
	sh scripts/bench_pairs.sh "$(or $(PARENT),HEAD~1)" -workload "$(or $(WORKLOAD),fanout-shared)" -pairs "$(or $(PAIRS),10)" -seed "$(or $(SEED),1)"

# serve-smoke boots `abivm serve` and asserts the ops endpoints answer
# with the required metric series.
serve-smoke:
	sh scripts/serve_smoke.sh

# docs-check fails when ARCHITECTURE.md/README.md drift from the
# package tree (stale references or unmapped packages), or
# OPERATIONS.md's metric catalogue from the registered series.
docs-check:
	sh scripts/docs_check.sh

# loc prints the non-test Go line counts ROADMAP item 5 tracks.
loc:
	sh scripts/loc.sh

# compile-smoke runs the SQL→IVM compiler end-to-end over the example
# catalog, then serves the compiled views for a short run.
compile-smoke:
	$(GO) run ./cmd/abivm compile -catalog examples/views.sql
	$(GO) run ./cmd/abivm serve -catalog examples/views.sql -addr 127.0.0.1:0 -steps 100 -interval 1ms
