package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// mkInstance builds a two-table instance with linear costs f0(k)=k,
// f1(k)=2k and constraint c over the given arrivals.
func mkInstance(t *testing.T, arr Arrivals, c float64) *Instance {
	t.Helper()
	in, err := NewInstance(arr, NewCostModel(linFunc{1, 0}, linFunc{2, 0}), c)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestArrivalsAccessors(t *testing.T) {
	arr := Arrivals{{1, 0}, {2, 3}, {0, 1}}
	if arr.T() != 2 {
		t.Fatalf("T = %d", arr.T())
	}
	if arr.N() != 2 {
		t.Fatalf("N = %d", arr.N())
	}
	if got := arr.TotalPerTable(); !got.Equal(Vector{3, 4}) {
		t.Fatalf("TotalPerTable = %v", got)
	}
	if got := arr.MaxPerStep(); !got.Equal(Vector{2, 3}) {
		t.Fatalf("MaxPerStep = %v", got)
	}
}

func TestArrivalsSuffixTotals(t *testing.T) {
	arr := Arrivals{{1, 0}, {2, 3}, {0, 1}}
	s := arr.SuffixTotals()
	want := []Vector{{2, 4}, {0, 1}, {0, 0}}
	for i := range want {
		if !s[i].Equal(want[i]) {
			t.Errorf("SuffixTotals[%d] = %v, want %v", i, s[i], want[i])
		}
	}
}

func TestArrivalsValidate(t *testing.T) {
	if err := (Arrivals{}).Validate(); err == nil {
		t.Error("empty sequence accepted")
	}
	if err := (Arrivals{{1}, {1, 2}}).Validate(); err == nil {
		t.Error("ragged sequence accepted")
	}
	if err := (Arrivals{{1}, {-2}}).Validate(); err == nil {
		t.Error("negative arrivals accepted")
	}
	if err := (Arrivals{{1, 2}, {0, 0}}).Validate(); err != nil {
		t.Errorf("valid sequence rejected: %v", err)
	}
}

func TestNewInstanceValidation(t *testing.T) {
	model := NewCostModel(linFunc{1, 0})
	if _, err := NewInstance(Arrivals{{1, 2}}, model, 5); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := NewInstance(Arrivals{{1}}, model, -1); err == nil {
		t.Error("negative constraint accepted")
	}
	if _, err := NewInstance(Arrivals{{1}}, model, math.NaN()); err == nil {
		t.Error("NaN constraint accepted")
	}
	if _, err := NewInstance(Arrivals{{1}}, model, 5); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
}

func TestRunTrajectory(t *testing.T) {
	in := mkInstance(t, Arrivals{{1, 1}, {1, 1}, {1, 1}}, 100)
	p := Plan{{0, 0}, {2, 0}, {1, 3}}
	tr := in.Run(p)
	wantPre := []Vector{{1, 1}, {2, 2}, {1, 3}}
	wantPost := []Vector{{1, 1}, {0, 2}, {0, 0}}
	for i := range wantPre {
		if !tr.Pre[i].Equal(wantPre[i]) {
			t.Errorf("Pre[%d] = %v, want %v", i, tr.Pre[i], wantPre[i])
		}
		if !tr.Post[i].Equal(wantPost[i]) {
			t.Errorf("Post[%d] = %v, want %v", i, tr.Post[i], wantPost[i])
		}
	}
}

func TestValidateAcceptsNaivePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		arr := make(Arrivals, 1+rng.Intn(20))
		for ti := range arr {
			arr[ti] = Vector{rng.Intn(3), rng.Intn(3)}
		}
		in := mkInstance(t, arr, float64(2+rng.Intn(10)))
		p := in.NaivePlan()
		if err := in.Validate(p); err != nil {
			t.Fatalf("trial %d: naive plan invalid: %v", trial, err)
		}
		if !in.IsLazy(p) {
			t.Fatalf("trial %d: naive plan not lazy", trial)
		}
		if !in.IsGreedy(p) {
			t.Fatalf("trial %d: naive plan not greedy", trial)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	in := mkInstance(t, Arrivals{{2, 0}, {0, 0}}, 1)

	// Over-draining.
	err := in.Validate(Plan{{3, 0}, {0, 0}})
	if err == nil || !strings.Contains(err.Error(), "exceeds accumulated") {
		t.Errorf("over-drain not rejected: %v", err)
	}

	// Negative action.
	err = in.Validate(Plan{{-1, 0}, {1, 0}})
	if err == nil || !strings.Contains(err.Error(), "negative action") {
		t.Errorf("negative action not rejected: %v", err)
	}

	// Full post-action state: leaving both modifications costs 2 > C=1.
	err = in.Validate(Plan{{0, 0}, {2, 0}})
	if err == nil || !strings.Contains(err.Error(), "full") {
		t.Errorf("full post-action state not rejected: %v", err)
	}

	// Residual at refresh.
	err = in.Validate(Plan{{1, 0}, {0, 0}})
	if err == nil || !strings.Contains(err.Error(), "refresh incomplete") {
		t.Errorf("incomplete refresh not rejected: %v", err)
	}

	// A valid plan passes.
	if err := in.Validate(Plan{{1, 0}, {1, 0}}); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}

	var perr *PlanError
	if err := in.Validate(Plan{{3, 0}, {0, 0}}); !errors.As(err, &perr) {
		t.Errorf("error is not a *PlanError: %v", err)
	}
}

func TestValidateWithNilAndShortPlans(t *testing.T) {
	in := mkInstance(t, Arrivals{{1, 0}, {0, 0}}, 10)
	// Short plan: missing actions are zero, so the refresh never happens.
	if err := in.Validate(Plan{}); err == nil {
		t.Error("empty plan accepted despite residual state")
	}
	// Nil entries are zero actions.
	if err := in.Validate(Plan{nil, {1, 0}}); err != nil {
		t.Errorf("plan with nil action rejected: %v", err)
	}
}

func TestPlanCost(t *testing.T) {
	in := mkInstance(t, Arrivals{{1, 1}, {1, 1}}, 100)
	p := Plan{{1, 0}, {1, 2}}
	// f0(1)+f0(1)+f1(2) = 1+1+4.
	if got := in.Cost(p); got != 6 {
		t.Fatalf("Cost = %g, want 6", got)
	}
	if got := in.Cost(Plan{nil, nil}); got != 0 {
		t.Fatalf("Cost of nil plan = %g", got)
	}
}

func TestIsLazyDetectsEagerAction(t *testing.T) {
	in := mkInstance(t, Arrivals{{1, 0}, {1, 0}, {0, 0}}, 10)
	eager := Plan{{1, 0}, {1, 0}, {0, 0}}
	if in.IsLazy(eager) {
		t.Error("eager plan reported lazy")
	}
	lazy := Plan{{0, 0}, {0, 0}, {2, 0}}
	if !in.IsLazy(lazy) {
		t.Error("lazy plan reported eager")
	}
}

func TestIsGreedyDetectsPartialDrain(t *testing.T) {
	in := mkInstance(t, Arrivals{{2, 0}, {0, 0}}, 10)
	partial := Plan{{1, 0}, {1, 0}}
	if in.IsGreedy(partial) {
		t.Error("partial drain reported greedy")
	}
	full := Plan{{0, 0}, {2, 0}}
	if !in.IsGreedy(full) {
		t.Error("full drain reported non-greedy")
	}
}

func TestIsMinimalDetectsOverkill(t *testing.T) {
	// C=3: after arrivals {2,1} the state costs 2+2=4 > 3, so an action is
	// forced; draining only table 1 (saving 2) reaches cost 2 <= 3, so
	// draining both tables is not minimal.
	in := mkInstance(t, Arrivals{{2, 1}, {0, 0}}, 3)
	overkill := Plan{{2, 1}, {0, 0}}
	if in.IsMinimal(overkill) {
		t.Error("overkill action reported minimal")
	}
	minimal := Plan{{0, 1}, {2, 0}}
	if !in.IsMinimal(minimal) {
		t.Error("minimal action reported non-minimal")
	}
}

func TestIsLGM(t *testing.T) {
	in := mkInstance(t, Arrivals{{2, 1}, {0, 0}}, 3)
	if !in.IsLGM(Plan{{0, 1}, {2, 0}}) {
		t.Error("LGM plan rejected")
	}
	if in.IsLGM(Plan{{2, 1}, {0, 0}}) {
		t.Error("non-minimal plan accepted as LGM")
	}
	// Invalid plans are never LGM.
	if in.IsLGM(Plan{{0, 0}, {0, 0}}) {
		t.Error("invalid plan accepted as LGM")
	}
}

func TestNaivePlanFlushesEverythingWhenFull(t *testing.T) {
	// C=2, arrivals of cost 1 per step on table 0: fills at t=2 (3 > 2).
	in := mkInstance(t, Arrivals{{1, 0}, {1, 0}, {1, 0}, {1, 0}, {0, 0}}, 2)
	p := in.NaivePlan()
	if !p[2].Equal(Vector{3, 0}) {
		t.Fatalf("naive flush at t=2 = %v, want [3 0]", p[2])
	}
	if err := in.Validate(p); err != nil {
		t.Fatal(err)
	}
}
