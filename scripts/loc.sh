#!/bin/sh
# The non-test Go line counts ROADMAP item 5 tracks: every *.go that is not
# a *_test.go under a package directory, counted with wc -l. The serving
# stack's two engines (pubsub + ivm + dataflow) are one total; the root
# abivm facade, storage, exec and durable are listed each. The scheduling
# side — the runtime policies, the simulator, the plan model and the A*
# planner — is a second line, each package listed. The lint suite
# (internal/lint + cmd/abivmlint, analyzer fixtures under testdata left
# out) is a third. The evaluation side — the figure experiments, the
# staged-maintenance study, the cost-model fitting and the TPC-R
# generator — is a fourth, each package listed.
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
echo "non-test Go lines: policy $(loc policy), sim $(loc sim), core $(loc core), astar $(loc astar)"
echo "non-test Go lines: lint $(count internal/lint cmd/abivmlint)"
echo "non-test Go lines: experiments $(loc experiments), staged $(loc staged), costmodel $(loc costmodel), tpcr $(loc tpcr)"
