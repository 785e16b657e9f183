package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSimTranscripts pins `abivm sim`, the one command that prints every
// policy's cost side by side: its output for two inputs is diffed against
// the transcripts under testdata/sim. A change that means to move a
// policy's decisions regenerates a transcript with
// `go run ./cmd/abivm sim <flags> > cmd/abivm/testdata/sim/<file>`.
func TestSimTranscripts(t *testing.T) {
	for _, tc := range []struct {
		file  string
		flags []string
	}{
		{"default.txt", nil},
		{"three-tables.txt", []string{"-costs", "0.05:4,0.5:0.1,0.02:9", "-rates", "2,1,3", "-C", "45", "-T", "200"}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			var out strings.Builder
			if err := runSim(&out, tc.flags); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "sim", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("`abivm sim %s` no longer prints %s; it prints:\n%s", strings.Join(tc.flags, " "), tc.file, got)
			}
		})
	}
}

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
		err := runSim(io.Discard, tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("sim %v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
