package main

import (
	"strings"
	"testing"
)

// TestSimRejectsBadFlags: `abivm sim` refuses a flush period below one
// step, a negative refresh time, a NaN constraint, a NaN or infinite cost
// parameter and more tables than the planners enumerate with an error
// naming the input, instead of panicking inside PERIODIC, the arrival
// generator, ONLINE or the A* search, or failing every policy's refresh
// check.
func TestSimRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-period", "0"}, "-period 0"},
		{[]string{"-T", "-1"}, "-T -1"},
		{[]string{"-C", "NaN"}, "constraint NaN"},
		{[]string{"-costs", "NaN:1,1:1"}, "-costs NaN:1"},
		{[]string{"-costs", "+Inf:1,1:1"}, "-costs +Inf:1"},
		{[]string{"-costs", "1:NaN,1:1"}, "-costs 1:NaN"},
		{[]string{"-costs", strings.Repeat("0.03:2.5,", 20) + "0.03:2.5", "-rates", strings.Repeat("1,", 20) + "1", "-T", "5", "-C", "100"}, "-costs: 21 tables"},
	} {
		err := runSim(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("sim %v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
