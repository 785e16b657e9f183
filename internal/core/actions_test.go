package core

import (
	"math/rand"
	"testing"
)

func TestGreedyActionSetEnumeratesMinimalSubsets(t *testing.T) {
	// f0(k)=k, f1(k)=2k, f2(k)=k. State {3, 2, 1} costs 3+4+1 = 8.
	m := NewCostModel(linFunc{1, 0}, linFunc{2, 0}, linFunc{1, 0})
	s := Vector{3, 2, 1}

	// C=4: need to shed > 4 cost. Options: drop table0 (saves 3, residual
	// 5 > 4 invalid); drop table1 (saves 4, residual 4 valid, minimal);
	// drop table2 (saves 1, invalid); {0,1} residual 1 valid but contains
	// valid subset {1}; {0,2} residual 4 valid and minimal (neither {0}
	// nor {2} valid); {1,2} contains {1}; {0,1,2} contains {1}.
	got := GreedyActionSet(s, m, 4, true)
	want := map[string]bool{"0,2,0": true, "3,0,1": true}
	if len(got) != len(want) {
		t.Fatalf("got %d actions %v, want %d", len(got), got, len(want))
	}
	for _, q := range got {
		if !want[q.Key()] {
			t.Errorf("unexpected minimal action %v", q)
		}
	}
}

func TestGreedyActionSetAllVsMinimal(t *testing.T) {
	m := NewCostModel(linFunc{1, 0}, linFunc{2, 0}, linFunc{1, 0})
	s := Vector{3, 2, 1}
	all := GreedyActionSet(s, m, 4, false)
	// Valid masks from the case analysis above: {1}, {0,1}, {0,2}, {1,2},
	// {0,1,2}.
	if len(all) != 5 {
		t.Fatalf("got %d valid actions %v, want 5", len(all), all)
	}
	minimal := GreedyActionSet(s, m, 4, true)
	for _, q := range minimal {
		// Every minimal action must appear among the valid ones.
		found := false
		for _, a := range all {
			if a.Equal(q) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("minimal action %v missing from valid set", q)
		}
	}
}

func TestGreedyActionSetSkipsEmptyTables(t *testing.T) {
	m := NewCostModel(linFunc{1, 0}, linFunc{1, 0})
	got := GreedyActionSet(Vector{0, 3}, m, 1, false)
	for _, q := range got {
		if q[0] != 0 {
			t.Errorf("action %v drains an empty table", q)
		}
	}
	if len(got) != 1 {
		t.Fatalf("got %d actions, want 1 (drain table 1)", len(got))
	}
}

func TestGreedyActionSetEmptyState(t *testing.T) {
	m := NewCostModel(linFunc{1, 0})
	if got := GreedyActionSet(Vector{0}, m, 1, true); got != nil {
		t.Fatalf("expected nil for empty state, got %v", got)
	}
}

func TestGreedyActionSetFullDrainAlwaysValid(t *testing.T) {
	// Property: for any full state, the set of valid greedy actions is
	// non-empty (the full drain is always there) and minimal actions leave
	// non-full states.
	rng := rand.New(rand.NewSource(3))
	m := NewCostModel(linFunc{1, 0}, linFunc{2, 1}, linFunc{0.5, 3})
	for trial := 0; trial < 200; trial++ {
		s := Vector{rng.Intn(10), rng.Intn(10), rng.Intn(10)}
		c := float64(rng.Intn(12))
		if !m.Full(s, c) {
			continue
		}
		minimal := GreedyActionSet(s, m, c, true)
		if len(minimal) == 0 {
			t.Fatalf("full state %v (C=%g) has no minimal valid action", s, c)
		}
		for _, q := range minimal {
			post := s.Sub(q)
			if m.Full(post, c) {
				t.Fatalf("action %v leaves full state %v", q, post)
			}
			// Minimality: dropping any drained table refills the state.
			for i, k := range q {
				if k == 0 {
					continue
				}
				reduced := q.Clone()
				reduced[i] = 0
				if !m.Full(s.Sub(reduced), c) {
					t.Fatalf("action %v not minimal: table %d droppable", q, i)
				}
			}
		}
	}
}

// TestGreedyActionsIntoReusesVectors: enumerating into the slice the
// previous call returned yields the same action set as GreedyActionSet,
// overwriting the vectors it already holds in place.
func TestGreedyActionsIntoReusesVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewCostModel(linFunc{1, 0}, linFunc{2, 1}, linFunc{0.5, 3})
	var sc ActionScratch
	var buf []Vector
	for trial := 0; trial < 200; trial++ {
		s := Vector{rng.Intn(10), rng.Intn(10), rng.Intn(10)}
		c := float64(rng.Intn(12))
		minimal := rng.Intn(2) == 0
		held := buf[:cap(buf)]
		buf = sc.GreedyActionsInto(buf, s, m, c, minimal)
		want := GreedyActionSet(s, m, c, minimal)
		if len(buf) != len(want) {
			t.Fatalf("state %v (C=%g): %d actions, want %d", s, c, len(buf), len(want))
		}
		for i, q := range buf {
			if !q.Equal(want[i]) {
				t.Fatalf("state %v (C=%g): action %d is %v, want %v", s, c, i, q, want[i])
			}
			if i < len(held) && len(held[i]) == len(q) && &q[0] != &held[i][0] {
				t.Fatalf("state %v: action %d was allocated beside the vector already at its position", s, i)
			}
		}
	}
}

func TestMinimizeAction(t *testing.T) {
	m := NewCostModel(linFunc{1, 0}, linFunc{2, 0}, linFunc{1, 0})
	s := Vector{3, 2, 1}
	// Full drain is valid for C=4; minimizing should keep a minimal
	// subset. Expensive components (table1, cost 4; table0, cost 3) are
	// dropped first when possible.
	q := MinimizeAction(s.Clone(), s, m, 4)
	post := s.Sub(q)
	if m.Full(post, 4) {
		t.Fatalf("minimized action %v leaves full state", q)
	}
	for i, k := range q {
		if k == 0 {
			continue
		}
		reduced := q.Clone()
		reduced[i] = 0
		if !m.Full(s.Sub(reduced), 4) {
			t.Fatalf("minimized action %v is not minimal (table %d droppable)", q, i)
		}
	}
}

func TestMinimizeActionPreservesValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewCostModel(linFunc{1, 0}, linFunc{3, 0})
	for trial := 0; trial < 200; trial++ {
		s := Vector{rng.Intn(8), rng.Intn(8)}
		c := float64(rng.Intn(10))
		if !m.Full(s, c) {
			continue
		}
		q := MinimizeAction(s.Clone(), s, m, c)
		if !q.DominatedBy(s) || !q.NonNegative() {
			t.Fatalf("minimized action %v out of range for state %v", q, s)
		}
		if m.Full(s.Sub(q), c) {
			t.Fatalf("minimized action %v invalid for state %v, C=%g", q, s, c)
		}
	}
}

func TestCheapestGreedyMinimalAction(t *testing.T) {
	m := NewCostModel(linFunc{1, 0}, linFunc{2, 0}, linFunc{1, 0})
	s := Vector{3, 2, 1}
	// Minimal actions for C=4 are {1} (cost 4) and {0,2} (cost 4): a tie,
	// broken lexicographically on the action key ("0,2,0" < "3,0,1").
	got := CheapestGreedyMinimalAction(s, m, 4)
	if !got.Equal(Vector{0, 2, 0}) {
		t.Fatalf("cheapest action = %v, want [0 2 0]", got)
	}
	// Non-full state: no action needed.
	if got := CheapestGreedyMinimalAction(Vector{1, 0, 0}, m, 4); got != nil {
		t.Fatalf("action for non-full state: %v", got)
	}
}
