package core

import (
	"math"
	"testing"
)

func TestApproxEq(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{1.0, 1.0, true},
		{0, 0, true},
		{0, 1e-12, true},            // below the absolute floor
		{0, 1e-6, false},            // visibly non-zero
		{1e9, 1e9 + 10, false},      // ten times the relative tolerance at this scale
		{1e9, 1e9 + 0.1, true},      // within relative tolerance
		{100.0, 100.0 + 5e-8, true}, // accumulated drift
		{1.0, 1.1, false},
		{math.Inf(1), math.Inf(1), true},
		{math.Inf(1), math.Inf(-1), false},
		{math.NaN(), math.NaN(), false},
		{math.NaN(), 1, false},
	}
	for _, c := range cases {
		if got := ApproxEq(c.a, c.b); got != c.want {
			t.Errorf("ApproxEq(%g, %g) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := ApproxEq(c.b, c.a); got != c.want {
			t.Errorf("ApproxEq(%g, %g) = %v, want %v (asymmetric)", c.b, c.a, got, c.want)
		}
	}
}

func TestApproxLEGE(t *testing.T) {
	if !ApproxLE(1.0, 2.0) || ApproxLE(2.0, 1.0) {
		t.Error("ApproxLE must order clearly separated values")
	}
	if !ApproxLE(1.0+1e-12, 1.0) {
		t.Error("ApproxLE must tolerate drift just above the bound")
	}
	// A drifted budget check: a cost that exceeds C by float noise fits.
	c := 25.0
	cost := 25.0 + 25*FloatTolerance/2
	if cost <= c {
		t.Fatal("test premise broken: cost should exceed c exactly")
	}
	if !ApproxLE(cost, c) {
		t.Error("ApproxLE should absorb accumulation noise around the budget")
	}
}
