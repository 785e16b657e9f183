#!/bin/sh
# The non-test Go line counts ROADMAP item 3 tracks: every *.go that is not
# a *_test.go under a package directory, counted with wc -l. The serving
# stack's two engines (pubsub + ivm + dataflow) are one total; storage,
# exec and durable are listed each.
set -eu

cd "$(dirname "$0")/.."

loc() {
	total=0
	for pkg in "$@"; do
		n=$(find "internal/$pkg" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
		total=$((total + n))
	done
	echo "$total"
}

echo "non-test Go lines: pubsub+ivm+dataflow $(loc pubsub ivm dataflow), storage $(loc storage), exec $(loc exec), durable $(loc durable)"
