package core

import (
	"errors"
	"fmt"
)

// Arrivals is the modification arrival sequence d_0..d_T: Arrivals[t][i]
// counts the modifications that land on base table R_i at step t.
type Arrivals []Vector

// T returns the final time step of the sequence (len-1). The view is
// refreshed at T.
func (a Arrivals) T() int { return len(a) - 1 }

// N returns the number of base tables, inferred from the first step.
// It panics on an empty sequence.
func (a Arrivals) N() int {
	if len(a) == 0 {
		panic("core: empty arrival sequence")
	}
	return len(a[0])
}

// TotalPerTable returns K, where K[i] is the total number of modifications
// on table i over the whole sequence. It panics if the sequence is not
// rectangular (see Validate).
func (a Arrivals) TotalPerTable() Vector {
	if len(a) == 0 {
		return nil
	}
	total := NewVector(a.N())
	for _, d := range a {
		total.AddInPlace(d)
	}
	return total
}

// SuffixTotals returns S where S[t][i] is the total number of table-i
// modifications arriving during (t, T], i.e. strictly after step t. The
// A* heuristic consumes these. S has len(a) entries; S[T] is zero. It
// panics if the sequence is empty or not rectangular.
func (a Arrivals) SuffixTotals() []Vector {
	n := a.N()
	out := make([]Vector, len(a))
	running := NewVector(n)
	for t := len(a) - 1; t >= 0; t-- {
		out[t] = running.Clone()
		running.AddInPlace(a[t])
	}
	return out
}

// MaxPerStep returns m, where m[i] is the largest single-step arrival
// count for table i. The A* heuristic uses this as the slack term in its
// per-table batch bound. It panics if the sequence is empty.
func (a Arrivals) MaxPerStep() Vector {
	m := NewVector(a.N())
	for _, d := range a {
		for i, x := range d {
			if x > m[i] {
				m[i] = x
			}
		}
	}
	return m
}

// Validate checks that the sequence is rectangular and non-negative.
func (a Arrivals) Validate() error {
	if len(a) == 0 {
		return errors.New("core: empty arrival sequence")
	}
	n := len(a[0])
	for t, d := range a {
		if len(d) != n {
			return fmt.Errorf("core: arrival step %d has %d components, want %d", t, len(d), n)
		}
		if !d.NonNegative() {
			return fmt.Errorf("core: arrival step %d has a negative component: %v", t, d)
		}
	}
	return nil
}

// Plan is a maintenance plan p_0..p_T: Plan[t][i] counts the modifications
// drained from delta table i at step t. A nil entry is treated as the zero
// action by the evaluation helpers in this package.
type Plan []Vector

// Clone returns a deep copy of the plan: every action vector is copied,
// and nil entries stay nil.
func (p Plan) Clone() Plan {
	out := make(Plan, len(p))
	for t, act := range p {
		if act != nil {
			out[t] = act.Clone()
		}
	}
	return out
}

// Instance bundles everything that defines one problem instance: the
// arrival sequence, the per-table cost functions, and the response-time
// constraint C. The view is refreshed at the last step of Arrivals.
type Instance struct {
	Arrivals Arrivals
	Model    *CostModel
	C        float64
}

// NewInstance builds an instance and validates its shape. It panics if
// model is nil; shape problems in the arrivals are returned as errors.
func NewInstance(arrivals Arrivals, model *CostModel, c float64) (*Instance, error) {
	if err := arrivals.Validate(); err != nil {
		return nil, err
	}
	if model.N() != arrivals.N() {
		return nil, fmt.Errorf("core: cost model arity %d does not match arrival arity %d", model.N(), arrivals.N())
	}
	if !(c >= 0) {
		return nil, fmt.Errorf("core: response-time constraint %g is negative or NaN", c)
	}
	return &Instance{Arrivals: arrivals, Model: model, C: c}, nil
}

// N returns the number of base tables. It panics if the instance holds an
// empty arrival sequence (NewInstance never builds one).
func (in *Instance) N() int { return in.Arrivals.N() }

// T returns the refresh time.
func (in *Instance) T() int { return in.Arrivals.T() }

// Cost returns the total maintenance cost of plan p: Σ_t f(p_t).
// Nil actions count as zero. It panics if an action does not match the
// model arity or has a negative component; use Validate to get an error
// instead.
func (in *Instance) Cost(p Plan) float64 {
	total := 0.0
	for _, act := range p {
		if act == nil {
			continue
		}
		total += in.Model.Total(act)
	}
	return total
}

// action returns p[t] or nil when the plan is shorter than t+1 or the
// entry is nil; callers treat nil as the zero action.
func planAction(p Plan, t int) Vector {
	if t >= len(p) {
		return nil
	}
	return p[t]
}

// Trajectory holds the state evolution of a plan over an instance.
type Trajectory struct {
	// Pre[t] is the pre-action state s_t: deltas after the arrivals at t
	// and before the action at t.
	Pre []Vector
	// Post[t] is the post-action state s_t+.
	Post []Vector
}

// Run evolves plan p over the instance and returns the state trajectory.
// It does not validate the plan; see Validate. It panics if an action's
// length does not match the instance arity.
func (in *Instance) Run(p Plan) Trajectory {
	n := in.N()
	tEnd := in.T()
	tr := Trajectory{Pre: make([]Vector, tEnd+1), Post: make([]Vector, tEnd+1)}
	state := NewVector(n)
	for t := 0; t <= tEnd; t++ {
		state.AddInPlace(in.Arrivals[t])
		tr.Pre[t] = state.Clone()
		if act := planAction(p, t); act != nil {
			state.SubInPlace(act)
		}
		tr.Post[t] = state.Clone()
	}
	return tr
}

// PlanError describes why a plan is invalid.
type PlanError struct {
	Time   int
	Reason string
}

func (e *PlanError) Error() string {
	return fmt.Sprintf("core: invalid plan at t=%d: %s", e.Time, e.Reason)
}

// Validate checks plan p against Definition 1:
//   - every action drains at most what has accumulated (0 <= p_t <= s_t),
//   - every post-action state before T satisfies f(s_t+) <= C,
//   - the action at T empties all delta tables (p_T = s_T).
//
// Malformed actions are reported as *PlanError values, never panics; it
// panics only if the instance itself is malformed (mismatched arrival
// arity, which NewInstance rejects).
func (in *Instance) Validate(p Plan) error {
	n := in.N()
	tEnd := in.T()
	state := NewVector(n)
	for t := 0; t <= tEnd; t++ {
		state.AddInPlace(in.Arrivals[t])
		act := planAction(p, t)
		if act == nil {
			act = NewVector(n)
		}
		if len(act) != n {
			return &PlanError{t, fmt.Sprintf("action has %d components, want %d", len(act), n)}
		}
		if !act.NonNegative() {
			return &PlanError{t, fmt.Sprintf("negative action %v", act)}
		}
		if !act.DominatedBy(state) {
			return &PlanError{t, fmt.Sprintf("action %v exceeds accumulated state %v", act, state)}
		}
		state.SubInPlace(act)
		if t < tEnd {
			if in.Model.Full(state, in.C) {
				return &PlanError{t, fmt.Sprintf("post-action state %v is full: f=%.6g > C=%.6g", state, in.Model.Total(state), in.C)}
			}
		}
	}
	if !state.IsZero() {
		return &PlanError{tEnd, fmt.Sprintf("refresh incomplete: residual state %v", state)}
	}
	return nil
}

// IsLazy reports whether plan p is lazy per Definition 2: before T it only
// acts when the pre-action state is full. The plan must be valid; like
// Run, it panics on actions whose length does not match the instance.
func (in *Instance) IsLazy(p Plan) bool {
	tr := in.Run(p)
	for t := 0; t < in.T(); t++ {
		act := planAction(p, t)
		if act == nil || act.IsZero() {
			continue
		}
		if !in.Model.Full(tr.Pre[t], in.C) {
			return false
		}
	}
	return true
}

// IsGreedy reports whether every action of p either fully drains a delta
// table or leaves it untouched (Definition 3, greediness). Like Run, it
// panics on actions whose length does not match the instance.
func (in *Instance) IsGreedy(p Plan) bool {
	tr := in.Run(p)
	for t := 0; t <= in.T(); t++ {
		act := planAction(p, t)
		if act == nil {
			continue
		}
		for i, k := range act {
			if k != 0 && k != tr.Pre[t][i] {
				return false
			}
		}
	}
	return true
}

// IsMinimal reports whether every action before T is minimal per
// Definition 3: no non-zero component can be dropped while keeping the
// post-action state non-full. Like Run, it panics on actions whose length
// does not match the instance.
func (in *Instance) IsMinimal(p Plan) bool {
	tr := in.Run(p)
	for t := 0; t < in.T(); t++ {
		act := planAction(p, t)
		if act == nil || act.IsZero() {
			continue
		}
		for i, k := range act {
			if k == 0 {
				continue
			}
			reduced := act.Clone()
			reduced[i] = 0
			if !in.Model.Full(tr.Pre[t].Sub(reduced), in.C) {
				return false
			}
		}
	}
	return true
}

// IsLGM reports whether p is a valid LGM (lazy, greedy, minimal) plan.
// Like Run, it panics on actions whose length does not match the instance.
func (in *Instance) IsLGM(p Plan) bool {
	if in.Validate(p) != nil {
		return false
	}
	return in.IsLazy(p) && in.IsGreedy(p) && in.IsMinimal(p)
}

// NaivePlan returns the symmetric deferred-maintenance baseline: whenever
// the pre-action state is full (and at T), process everything. This is the
// NAIVE plan of the paper's experiments and is always a valid LGM plan
// except that its actions are not necessarily minimal. It panics if the
// instance's arrival sequence is not rectangular (NewInstance rejects
// such sequences).
func (in *Instance) NaivePlan() Plan {
	n := in.N()
	tEnd := in.T()
	p := make(Plan, tEnd+1)
	state := NewVector(n)
	for t := 0; t <= tEnd; t++ {
		state.AddInPlace(in.Arrivals[t])
		if t == tEnd || in.Model.Full(state, in.C) {
			p[t] = state.Clone()
			state = NewVector(n)
		} else {
			p[t] = NewVector(n)
		}
	}
	return p
}
