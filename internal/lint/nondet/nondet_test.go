package nondet_test

import (
	"testing"

	"abivm/internal/lint"
	"abivm/internal/lint/nondet"
)

func TestNonDetFixture(t *testing.T) {
	lint.RunFixture(t, nondet.Analyzer, "testdata/src/detcore")
}

func TestNonDetCalibrationFixture(t *testing.T) {
	lint.RunFixture(t, nondet.Analyzer, "testdata/src/viewcalib")
}

func TestPolicyTable(t *testing.T) {
	cases := map[string]bool{
		"abivm/internal/ivm":       true,
		"abivm/internal/pubsub":    true,
		"abivm/internal/dataflow":  true, // shared engine: chaos compares it with ivm
		"abivm/internal/exec":      true,
		"abivm/internal/plan":      true,
		"abivm/internal/btree":     true,
		"abivm/internal/core":      true,
		"abivm/internal/astar":     true,
		"abivm/internal/fault":     true,
		"abivm/internal/storage":   true,
		"abivm/internal/viewc":     true, // compiler: seed must pin the model
		"abivm/internal/costmodel": true,
		"abivm/internal/obs":       false, // measurement layer is exempt
		"abivm/internal/policy":    false,
		"abivm/cmd/abivm":          false, // process shell is exempt
		"abivm/internal/lint":      false,
		"abivm":                    false,
		"abivm/internal/ivmextra":  false, // suffix must match a whole segment
	}
	for path, want := range cases {
		if got := nondet.Deterministic(path); got != want {
			t.Errorf("Deterministic(%q) = %v, want %v", path, got, want)
		}
	}
}
