package main

import (
	"context"
	"strings"
	"testing"
)

// TestServeRejectsBadFlags: `abivm serve` refuses a step interval that
// is not positive, negative counts, the shared graph beside a disk tier,
// and the retired -shards flag with an error naming the flags, before it
// builds a workload or listens: no ticker panic, no silent default.
func TestServeRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-interval", "0"}, "-interval 0s"},
		{[]string{"-interval", "-1ms"}, "-interval -1ms"},
		{[]string{"-steps", "-1"}, "-steps -1"},
		{[]string{"-tracebuf", "-1"}, "-tracebuf -1"},
		{[]string{"-tracebuf", "0"}, "-tracebuf 0"},
		{[]string{"-shared", "-data-dir", "unused"}, "-shared has no disk durability"},
		{[]string{"-shards", "2"}, "-shards"},
	} {
		args := append([]string{"-addr", "127.0.0.1:0", "-steps", "1", "-interval", "1ms"}, tc.args...)
		err := runServe(context.Background(), args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("serve %v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestChaosRejectsBadFlags: `abivm chaos` refuses a run of no steps, a
// negative cadence and the retired -shards flag with an error naming the
// flag, instead of running the default 60 steps.
func TestChaosRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-steps", "0"}, "-steps 0"},
		{[]string{"-steps", "-1"}, "-steps -1"},
		{[]string{"-checkpoint", "-1"}, "-checkpoint -1"},
		{[]string{"-shards", "2"}, "-shards"},
	} {
		err := runChaos(context.Background(), append([]string{"-steps", "2"}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("chaos %v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestCompileRejectsBadFlags: `abivm compile` refuses an unknown cost
// fit once, naming the flag, before it calibrates any view — not once per
// view after calibrating them all — and a call with neither a catalog nor
// one query.
func TestCompileRejectsBadFlags(t *testing.T) {
	const query = "SELECT s.salekey FROM sales AS s"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fit", "cubic", query}, `-fit "cubic"`},
		{[]string{"-fit", "cubic", "-catalog", "no-such-catalog.sql"}, `-fit "cubic"`},
		{nil, "need -catalog FILE or exactly one query argument"},
	} {
		err := runCompile(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("compile %v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
