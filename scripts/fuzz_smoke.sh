#!/bin/sh
# Fuzz smoke: every native fuzz target (func Fuzz* in a _test.go file of
# the root module) run for 10s from its seed corpus — today the SQL front
# end (FuzzParse), the snapshot, checkpoint-segment, WAL-frame and
# MANIFEST decoders, the key codec, and the exact float accumulator every
# SUM and AVG folds through (FuzzExactSum). Targets are discovered, not
# listed: a new Fuzz* function is picked up by the loop below.
# `go test -fuzz` takes one package and one target at a time, hence the
# loop. A crasher the fuzzer finds is written under the package's
# testdata/fuzz/ and fails the run; commit it with the fix.
# Run via `make fuzz-smoke`; CI's verify job runs it after `make verify`.
set -eu

cd "$(dirname "$0")/.."

# benchmark/ is a nested module with its own tests; .bench_build its cache.
pkgs=$(grep -rl --include='*_test.go' --exclude-dir=benchmark --exclude-dir=.bench_build '^func Fuzz' . | xargs -n1 dirname | sort -u)
for pkg in $pkgs; do
	for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz'); do
		echo "==> $pkg $target"
		go test -run '^$' -fuzz "^$target\$" -fuzztime 10s "$pkg"
	done
done
echo "fuzz-smoke: OK"
