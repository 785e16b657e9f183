package sim

import (
	"math"
	"math/rand"
	"testing"

	"abivm/internal/core"
	"abivm/internal/costfn"
	"abivm/internal/policy"
)

func mkInstance(t *testing.T, arr core.Arrivals, c float64) *core.Instance {
	t.Helper()
	f0, err := costfn.NewLinear(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := costfn.NewLinear(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewInstance(arr, core.NewCostModel(f0, f1), c)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestRunNaiveAccounting(t *testing.T) {
	arr := core.Arrivals{{1, 1}, {5, 5}, {0, 0}}
	in := mkInstance(t, arr, 10)
	res, err := Run(in, policy.NewNaive(in.Model, in.C))
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "NAIVE" {
		t.Errorf("Policy = %q", res.Policy)
	}
	// t=1: state {6,6} costs 8+7=15 > 10 -> flush costing 8+7=15.
	// t=2: refresh of empty state costs 0.
	if math.Abs(res.TotalCost-15) > 1e-9 {
		t.Errorf("TotalCost = %g, want 15", res.TotalCost)
	}
	if res.Actions != 1 {
		t.Errorf("Actions = %d, want 1", res.Actions)
	}
	if res.ActionsPerTable[0] != 1 || res.ActionsPerTable[1] != 1 {
		t.Errorf("ActionsPerTable = %v", res.ActionsPerTable)
	}
	if math.Abs(res.PerTableCost[0]-8) > 1e-9 || math.Abs(res.PerTableCost[1]-7) > 1e-9 {
		t.Errorf("PerTableCost = %v, want [8 7]", res.PerTableCost)
	}
	for ti, want := range []core.Vector{{0, 0}, {6, 6}, {0, 0}} {
		if !res.Plan[ti].Equal(want) {
			t.Errorf("Plan[%d] = %v, want %v", ti, res.Plan[ti], want)
		}
	}
	if res.MaxRefreshCost > in.C {
		t.Errorf("MaxRefreshCost %g exceeds C", res.MaxRefreshCost)
	}
	// Plan is recorded and valid.
	if err := in.Validate(res.Plan); err != nil {
		t.Errorf("recorded plan invalid: %v", err)
	}
}

func TestRunCostMatchesInstanceCost(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		arr := make(core.Arrivals, 5+rng.Intn(50))
		for ti := range arr {
			arr[ti] = core.Vector{rng.Intn(3), rng.Intn(3)}
		}
		in := mkInstance(t, arr, float64(10+rng.Intn(8)))
		res, err := Run(in, policy.NewOnline(in.Model, in.C, nil))
		if err != nil {
			t.Fatal(err)
		}
		if want := in.Cost(res.Plan); math.Abs(res.TotalCost-want) > 1e-9 {
			t.Fatalf("trial %d: TotalCost %g != plan cost %g", trial, res.TotalCost, want)
		}
		// Per-table costs sum to the total.
		sum := 0.0
		for _, c := range res.PerTableCost {
			sum += c
		}
		if math.Abs(sum-res.TotalCost) > 1e-9 {
			t.Fatalf("trial %d: per-table sum %g != total %g", trial, sum, res.TotalCost)
		}
	}
}

func TestRunRejectsRoguePolicy(t *testing.T) {
	arr := core.Arrivals{{1, 1}, {0, 0}}
	in := mkInstance(t, arr, 10)
	if _, err := Run(in, roguePolicy{}); err == nil {
		t.Fatal("rogue policy accepted")
	}
}

// roguePolicy drains more than available.
type roguePolicy struct{}

func (roguePolicy) Name() string { return "ROGUE" }
func (roguePolicy) Reset(int)    {}
func (roguePolicy) Act(t int, d, pre core.Vector, refresh bool) core.Vector {
	act := pre.Clone()
	act[0] += 5
	return act
}

func TestRunRejectsLazyRefusal(t *testing.T) {
	// A policy that never acts leaves residual state at T: Run must fail
	// validation.
	arr := core.Arrivals{{1, 1}, {0, 0}}
	in := mkInstance(t, arr, 10)
	if _, err := Run(in, sleeperPolicy{}); err == nil {
		t.Fatal("sleeper policy accepted despite incomplete refresh")
	}
}

// TestRunKeepsEachAction: a policy that returns one vector it refills
// every step, as the Policy contract allows, still leaves a plan whose
// every step holds the action taken then.
func TestRunKeepsEachAction(t *testing.T) {
	arr := core.Arrivals{{1, 2}, {3, 0}, {0, 4}, {2, 2}}
	in := mkInstance(t, arr, 1e9)
	res, err := Run(in, &reusingPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for ti, act := range res.Plan {
		if !act.Equal(arr[ti]) {
			t.Fatalf("plan step %d reads %v, the policy drained %v", ti, act, arr[ti])
		}
	}
}

// reusingPolicy drains each step's arrivals, returning them in the one
// vector it owns.
type reusingPolicy struct{ act core.Vector }

func (*reusingPolicy) Name() string { return "REUSING" }
func (*reusingPolicy) Reset(int)    {}
func (p *reusingPolicy) Act(t int, d, pre core.Vector, refresh bool) core.Vector {
	p.act = append(p.act[:0], d...)
	return p.act
}

type sleeperPolicy struct{}

func (sleeperPolicy) Name() string { return "SLEEPER" }
func (sleeperPolicy) Reset(int)    {}
func (sleeperPolicy) Act(t int, d, pre core.Vector, refresh bool) core.Vector {
	return core.NewVector(len(pre))
}

func TestMaxRefreshCostNeverExceedsC(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		arr := make(core.Arrivals, 10+rng.Intn(80))
		for ti := range arr {
			arr[ti] = core.Vector{rng.Intn(4), rng.Intn(4)}
		}
		in := mkInstance(t, arr, float64(9+rng.Intn(10)))
		for _, pol := range []policy.Policy{
			policy.NewNaive(in.Model, in.C),
			policy.NewOnline(in.Model, in.C, nil),
		} {
			res, err := Run(in, pol)
			if err != nil {
				t.Fatal(err)
			}
			if res.MaxRefreshCost > in.C {
				t.Fatalf("trial %d %s: MaxRefreshCost %g > C %g", trial, pol.Name(), res.MaxRefreshCost, in.C)
			}
		}
	}
}
