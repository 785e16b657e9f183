package lgm

import (
	"math/rand"
	"testing"

	"abivm/internal/bruteforce"
	"abivm/internal/core"
	"abivm/internal/costfn"
)

// randInstance builds a random small instance with the given cost
// functions.
func randInstance(t *testing.T, rng *rand.Rand, funcs []core.CostFunc, steps, maxArrive int, c float64) *core.Instance {
	t.Helper()
	arr := make(core.Arrivals, steps)
	for ti := range arr {
		d := core.NewVector(len(funcs))
		for i := range d {
			d[i] = rng.Intn(maxArrive + 1)
		}
		arr[ti] = d
	}
	in, err := core.NewInstance(arr, core.NewCostModel(funcs...), c)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// randValidPlan produces a random valid (generally non-lazy, non-greedy)
// plan: at each step it drains random amounts, retrying until the
// post-action state is non-full, falling back to a full drain.
func randValidPlan(rng *rand.Rand, in *core.Instance) core.Plan {
	n := in.N()
	tEnd := in.T()
	plan := make(core.Plan, tEnd+1)
	state := core.NewVector(n)
	for t := 0; t <= tEnd; t++ {
		state.AddInPlace(in.Arrivals[t])
		if t == tEnd {
			plan[t] = state.Clone()
			state = core.NewVector(n)
			continue
		}
		var act core.Vector
		for attempt := 0; attempt < 8; attempt++ {
			try := core.NewVector(n)
			for i := range try {
				if state[i] > 0 {
					try[i] = rng.Intn(state[i] + 1)
				}
			}
			if !in.Model.Full(state.Sub(try), in.C) {
				act = try
				break
			}
		}
		if act == nil {
			act = state.Clone() // full drain always valid
		}
		plan[t] = act
		state.SubInPlace(act)
	}
	return plan
}

func linearFuncs(t *testing.T) []core.CostFunc {
	t.Helper()
	f0, err := costfn.NewLinear(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := costfn.NewLinear(0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	return []core.CostFunc{f0, f1}
}

func TestMakeLazyPlanProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	funcs := linearFuncs(t)
	for trial := 0; trial < 100; trial++ {
		in := randInstance(t, rng, funcs, 3+rng.Intn(15), 3, float64(8+rng.Intn(10)))
		p := randValidPlan(rng, in)
		if err := in.Validate(p); err != nil {
			t.Fatalf("trial %d: generator produced invalid plan: %v", trial, err)
		}
		q := MakeLazyPlan(in, p)
		if err := in.Validate(q); err != nil {
			t.Fatalf("trial %d: lazy plan invalid: %v", trial, err)
		}
		if !in.IsLazy(q) {
			t.Fatalf("trial %d: MakeLazyPlan output not lazy", trial)
		}
		if cq, cp := in.Cost(q), in.Cost(p); cq > cp+1e-9 {
			t.Fatalf("trial %d: lazy plan cost %g exceeds original %g", trial, cq, cp)
		}
	}
}

func TestMakeLazyPlanOnStepCosts(t *testing.T) {
	// Subadditive non-concave costs exercise the combination argument of
	// Lemma 1 beyond the linear case.
	rng := rand.New(rand.NewSource(9))
	step1, err := costfn.NewStep(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	step2, err := costfn.NewStep(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	funcs := []core.CostFunc{step1, step2}
	for trial := 0; trial < 100; trial++ {
		in := randInstance(t, rng, funcs, 3+rng.Intn(12), 3, float64(4+rng.Intn(8)))
		p := randValidPlan(rng, in)
		q := MakeLazyPlan(in, p)
		if err := in.Validate(q); err != nil {
			t.Fatalf("trial %d: lazy plan invalid: %v", trial, err)
		}
		if !in.IsLazy(q) {
			t.Fatalf("trial %d: output not lazy", trial)
		}
		if cq, cp := in.Cost(q), in.Cost(p); cq > cp+1e-9 {
			t.Fatalf("trial %d: lazy cost %g > original %g", trial, cq, cp)
		}
	}
}

func TestMakeLGMPlanProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	funcs := linearFuncs(t)
	for trial := 0; trial < 100; trial++ {
		in := randInstance(t, rng, funcs, 3+rng.Intn(15), 3, float64(8+rng.Intn(10)))
		p := randValidPlan(rng, in)
		q := MakeLGMPlan(in, p)
		if err := in.Validate(q); err != nil {
			t.Fatalf("trial %d: LGM plan invalid: %v", trial, err)
		}
		if !in.IsLGM(q) {
			t.Fatalf("trial %d: MakeLGMPlan output not LGM", trial)
		}
		// Lemma 2 / Theorem 1 bound: f(Q) <= 2 f(P).
		if cq, cp := in.Cost(q), in.Cost(p); cq > 2*cp+1e-9 {
			t.Fatalf("trial %d: LGM cost %g exceeds twice original %g", trial, cq, cp)
		}
	}
}

func TestMakeLGMPlanActionCountsUnderLinearCosts(t *testing.T) {
	// Theorem 2 machinery: per-table action counts of the constructed LGM
	// plan never exceed those of the source plan.
	rng := rand.New(rand.NewSource(77))
	funcs := linearFuncs(t)
	for trial := 0; trial < 150; trial++ {
		in := randInstance(t, rng, funcs, 3+rng.Intn(12), 3, float64(8+rng.Intn(12)))
		p := randValidPlan(rng, in)
		q := MakeLGMPlan(in, p)
		cp := ActionCount(p, in.N())
		cq := ActionCount(q, in.N())
		for i := range cp {
			if cq[i] > cp[i] {
				t.Fatalf("trial %d: |Q(%d)|=%d > |P(%d)|=%d\nP=%v\nQ=%v",
					trial, i, cq[i], i, cp[i], p, q)
			}
		}
	}
}

func TestMakeLGMPlanOnStepCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	step1, _ := costfn.NewStep(4, 3)
	step2, _ := costfn.NewStep(2, 1)
	funcs := []core.CostFunc{step1, step2}
	for trial := 0; trial < 100; trial++ {
		in := randInstance(t, rng, funcs, 3+rng.Intn(10), 3, float64(4+rng.Intn(8)))
		p := randValidPlan(rng, in)
		q := MakeLGMPlan(in, p)
		if err := in.Validate(q); err != nil {
			t.Fatalf("trial %d: LGM plan invalid: %v", trial, err)
		}
		if !in.IsLGM(q) {
			t.Fatalf("trial %d: output not LGM", trial)
		}
		if cq, cp := in.Cost(q), in.Cost(p); cq > 2*cp+1e-9 {
			t.Fatalf("trial %d: LGM cost %g > 2x original %g", trial, cq, cp)
		}
	}
}

func TestMakeLGMPlanFromOptimalIsTwoApprox(t *testing.T) {
	// End-to-end Theorem 1: transform a globally optimal plan and compare
	// against OPT itself.
	rng := rand.New(rand.NewSource(5))
	step1, _ := costfn.NewStep(3, 2)
	lin, _ := costfn.NewLinear(1, 1)
	funcs := []core.CostFunc{step1, lin}
	for trial := 0; trial < 20; trial++ {
		in := randInstance(t, rng, funcs, 3+rng.Intn(5), 2, float64(4+rng.Intn(5)))
		opt, optPlan, err := bruteforce.Optimal(in)
		if err != nil {
			t.Fatal(err)
		}
		q := MakeLGMPlan(in, optPlan)
		if err := in.Validate(q); err != nil {
			t.Fatalf("trial %d: invalid: %v", trial, err)
		}
		if cq := in.Cost(q); cq > 2*opt+1e-9 {
			t.Fatalf("trial %d: LGM-from-OPT cost %g > 2*OPT %g", trial, cq, opt)
		}
	}
}

func TestActionCount(t *testing.T) {
	p := core.Plan{{1, 0}, {0, 0}, {2, 3}, nil, {0, 1}}
	got := ActionCount(p, 2)
	if got[0] != 2 || got[1] != 2 {
		t.Fatalf("ActionCount = %v, want [2 2]", got)
	}
}

func TestMakeLazyPlanIdempotentOnLazyInput(t *testing.T) {
	// A lazy plan passed through MakeLazyPlan keeps its cost (actions are
	// released at the same forced times).
	rng := rand.New(rand.NewSource(64))
	funcs := linearFuncs(t)
	for trial := 0; trial < 50; trial++ {
		in := randInstance(t, rng, funcs, 3+rng.Intn(10), 3, float64(8+rng.Intn(10)))
		base := in.NaivePlan()
		q := MakeLazyPlan(in, base)
		if c1, c2 := in.Cost(base), in.Cost(q); c1 != c2 {
			t.Fatalf("trial %d: lazy transform changed cost of lazy plan: %g -> %g", trial, c1, c2)
		}
	}
}

func TestPlanTransformsDoNotAliasInput(t *testing.T) {
	// Regression test for vector aliasing: the transformed plan must own
	// its vectors, so mutating the input plan (or vice versa) afterwards
	// must not change the output. A shared backing array here would let a
	// caller silently corrupt a derived plan.
	rng := rand.New(rand.NewSource(7))
	lin1, _ := costfn.NewLinear(1, 2)
	lin2, _ := costfn.NewLinear(2, 1)
	in := randInstance(t, rng, []core.CostFunc{lin1, lin2}, 8, 4, 14)
	p := randValidPlan(rng, in)

	for name, transform := range map[string]func(*core.Instance, core.Plan) core.Plan{
		"MakeLazyPlan": MakeLazyPlan,
		"MakeLGMPlan":  MakeLGMPlan,
	} {
		// Each transform gets its own copy of the plan: scribbling over
		// the shared one made whichever transform the map yielded second
		// run on garbage (and MakeLazyPlan panic on it).
		input := p.Clone()
		q := transform(in, input)
		snapshot := q.Clone()
		// Scribble over the input plan's vectors.
		for _, act := range input {
			for i := range act {
				act[i] = 997
			}
		}
		for ti := range q {
			if !q[ti].Equal(snapshot[ti]) {
				t.Errorf("%s: output step %d changed after input mutation: %v -> %v",
					name, ti, snapshot[ti], q[ti])
			}
		}
		// And the other direction: mutating the output must not corrupt
		// the input the caller still holds.
		p2 := randValidPlan(rng, in)
		p2Snap := p2.Clone()
		q2 := transform(in, p2)
		for _, act := range q2 {
			for i := range act {
				act[i] = -1
			}
		}
		for ti := range p2 {
			if !p2[ti].Equal(p2Snap[ti]) {
				t.Errorf("%s: input step %d changed after output mutation: %v -> %v",
					name, ti, p2Snap[ti], p2[ti])
			}
		}
	}
}
