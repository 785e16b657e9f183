// Package testenv tells tests what the test binary was built with, for
// the assertions that only hold in some builds.
package testenv

import "testing"

// raceEnabled is set by race.go, which only builds under -race.
var raceEnabled bool

// NeedsAllocCounts skips t under the race detector, whose
// instrumentation allocates on its own and would make an allocation
// count either fail spuriously or pass without meaning anything.
// scripts/check.sh runs the allocation tests once more without -race.
func NeedsAllocCounts(t testing.TB) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}
