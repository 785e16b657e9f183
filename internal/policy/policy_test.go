package policy

import (
	"math/rand"
	"testing"

	"abivm/internal/core"
	"abivm/internal/costfn"
)

func mkModel(t *testing.T) *core.CostModel {
	t.Helper()
	f0, err := costfn.NewLinear(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := costfn.NewLinear(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewCostModel(f0, f1)
}

// drive runs a policy over an arrival sequence by hand and returns the
// produced plan; it fails the test on any invalid action.
func drive(t *testing.T, pol Policy, arr core.Arrivals, model *core.CostModel, c float64) core.Plan {
	t.Helper()
	n := arr.N()
	pol.Reset(n)
	plan := make(core.Plan, len(arr))
	state := core.NewVector(n)
	for ti, d := range arr {
		state.AddInPlace(d)
		act := pol.Act(ti, d.Clone(), state.Clone(), ti == len(arr)-1)
		if !act.NonNegative() || !act.DominatedBy(state) {
			t.Fatalf("%s: out-of-range action %v at t=%d (state %v)", pol.Name(), act, ti, state)
		}
		state.SubInPlace(act)
		plan[ti] = act.Clone()
	}
	return plan
}

func TestNaiveFlushesOnlyWhenFull(t *testing.T) {
	model := mkModel(t)
	c := 10.0
	pol := NewNaive(model, c)
	if pol.Name() != "NAIVE" {
		t.Fatalf("Name = %q", pol.Name())
	}
	arr := core.Arrivals{{1, 1}, {1, 1}, {5, 5}, {0, 0}}
	plan := drive(t, pol, arr, model, c)
	// t=0: state {1,1} costs 3+4.5=7.5, not full -> no action.
	if !plan[0].IsZero() {
		t.Errorf("action at t=0: %v", plan[0])
	}
	// t=1: state {2,2} costs 4+5=9, not full.
	if !plan[1].IsZero() {
		t.Errorf("action at t=1: %v", plan[1])
	}
	// t=2: state {7,7} costs 9+7.5=16.5 > 10 -> flush all.
	if !plan[2].Equal(core.Vector{7, 7}) {
		t.Errorf("action at t=2: %v, want full flush", plan[2])
	}
	// t=3 is the refresh with empty state.
	if !plan[3].IsZero() {
		t.Errorf("action at t=3: %v", plan[3])
	}
}

func TestNaiveMatchesCoreNaivePlan(t *testing.T) {
	model := mkModel(t)
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 30; trial++ {
		arr := make(core.Arrivals, 2+rng.Intn(30))
		for ti := range arr {
			arr[ti] = core.Vector{rng.Intn(4), rng.Intn(4)}
		}
		c := float64(8 + rng.Intn(10))
		in, err := core.NewInstance(arr, model, c)
		if err != nil {
			t.Fatal(err)
		}
		got := drive(t, NewNaive(model, c), arr, model, c)
		want := in.NaivePlan()
		for ti := range want {
			if !got[ti].Equal(want[ti]) {
				t.Fatalf("trial %d: NAIVE policy diverges from core.NaivePlan at t=%d: %v vs %v",
					trial, ti, got[ti], want[ti])
			}
		}
	}
}

// TestAdaptReplaysPlan: given a plan over the whole run (T+1 steps),
// ADAPT replays it verbatim.
func TestAdaptReplaysPlan(t *testing.T) {
	model := mkModel(t)
	c := 10.0
	arr := core.Arrivals{{2, 0}, {0, 3}, {1, 1}}
	in, err := core.NewInstance(arr, model, c)
	if err != nil {
		t.Fatal(err)
	}
	ref := in.NaivePlan()
	got := drive(t, NewAdapt(model, c, ref), arr, model, c)
	for ti := range ref {
		if !got[ti].Equal(ref[ti]) {
			t.Fatalf("replay diverges at t=%d: %v vs %v", ti, got[ti], ref[ti])
		}
	}
}

func TestAdaptClampsAndRepairs(t *testing.T) {
	model := mkModel(t)
	c := 5.0
	// Plan asks for more than available and then nothing, against arrivals
	// that fill the state: ADAPT must clamp and stay valid.
	plan := core.Plan{{100, 100}, nil, nil}
	arr := core.Arrivals{{1, 1}, {4, 4}, {0, 0}}
	in, err := core.NewInstance(arr, model, c)
	if err != nil {
		t.Fatal(err)
	}
	got := drive(t, NewAdapt(model, c, plan), arr, model, c)
	if err := in.Validate(got); err != nil {
		t.Fatalf("ADAPT produced invalid plan: %v", err)
	}
	// At t=0 the plan's 100s clamp to the available {1,1}.
	if !got[0].Equal(core.Vector{1, 1}) {
		t.Fatalf("clamped action = %v, want [1 1]", got[0])
	}
}

func TestEWMAEstimator(t *testing.T) {
	e := NewEWMA()
	e.Reset(2)
	e.Observe(core.Vector{5, 0})
	r := e.Rates()
	if r[0] != 5 || r[1] != 0 {
		t.Fatalf("first observation not adopted: %v", r)
	}
	// α = 0.2: 5 + 0.2·(0-5) = 4 and 0 + 0.2·(10-0) = 2.
	e.Observe(core.Vector{0, 10})
	r = e.Rates()
	if r[0] != 4 || r[1] != 2 {
		t.Fatalf("EWMA update wrong: %v", r)
	}
}

func TestFixedRates(t *testing.T) {
	f := FixedRates{1.5, 2}
	f.Reset(2)
	f.Observe(core.Vector{100, 100})
	if r := f.Rates(); r[0] != 1.5 || r[1] != 2 {
		t.Fatalf("FixedRates mutated: %v", r)
	}
}
