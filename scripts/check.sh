#!/bin/sh
# Full verification gate: gofmt, vet, domain lint, build, race-enabled tests.
# This is what `make verify` and CI run; it must pass before merging.
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

echo "==> go test -race"
go test -race -timeout "${TEST_TIMEOUT:-10m}" ./...

echo "OK"
