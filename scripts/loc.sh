#!/bin/sh
# The non-test Go line counts ROADMAP item 5 tracks: every *.go that is not
# a *_test.go under a package directory, counted with wc -l. The serving
# stack's two engines (pubsub + ivm + dataflow) are one total; the root
# abivm facade, storage, exec and durable are listed each. The lint suite
# (internal/lint + cmd/abivmlint, analyzer fixtures under testdata left
# out) is a second line.
set -eu

cd "$(dirname "$0")/.."

count() {
	find "$@" -name testdata -prune -o -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
}

loc() {
	total=0
	for pkg in "$@"; do
		total=$((total + $(count "internal/$pkg")))
	done
	echo "$total"
}

echo "non-test Go lines: pubsub+ivm+dataflow $(loc pubsub ivm dataflow), root $(count . -maxdepth 1), storage $(loc storage), exec $(loc exec), durable $(loc durable)"
echo "non-test Go lines: lint $(count internal/lint cmd/abivmlint)"
