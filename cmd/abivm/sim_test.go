package main

import (
	"strings"
	"testing"
)

// TestSimRejectsBadFlags: `abivm sim` refuses a flush period below one
// step, a negative refresh time and a NaN constraint with an error naming
// the input, instead of panicking inside PERIODIC or the arrival
// generator, or failing every policy's refresh check.
func TestSimRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-period", "0"}, "-period 0"},
		{[]string{"-T", "-1"}, "-T -1"},
		{[]string{"-C", "NaN"}, "constraint NaN"},
	} {
		err := runSim(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("sim %v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
