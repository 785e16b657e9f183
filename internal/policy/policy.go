// Package policy implements the runtime maintenance policies compared in
// the paper's experiments:
//
//   - Naive — the traditional symmetric approach: whenever the constraint
//     is violated, process every batched modification (Section 1).
//   - Online — the heuristic of Section 4.3: on violation, pick the greedy
//     minimal valid action minimizing the amortized-cost ratio H, using a
//     rate estimator to predict TimeToFull. Needs no advance knowledge.
//   - Adapt — Section 4.2: execute a plan precomputed for an estimated
//     refresh time T0; truncate if the true refresh comes earlier, repeat
//     the plan if it comes later.
//   - Oracle — replays a precomputed plan verbatim (e.g. the optimal LGM
//     plan from the astar package); the perfect-knowledge upper baseline.
//
// All policies share the Policy interface consumed by the sim package. A
// policy is driven one step at a time: it observes the arrivals, sees the
// pre-action state, and returns the action to take. Policies never return
// invalid actions: if their primary rule would leave a full state they
// fall back to the cheapest greedy minimal valid action.
package policy

import "abivm/internal/core"

// Policy decides maintenance actions online, one time step at a time.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Reset prepares the policy for a fresh run over n base tables.
	Reset(n int)
	// Act is called once per step. d is the arrival vector at t, pre is
	// the pre-action state (arrivals already included), and refresh marks
	// the final step, at which the returned action must drain everything.
	// Implementations must not retain or mutate d or pre, and the returned
	// vector must alias neither: callers pass their live vectors (the
	// broker its arrival counter and pending scratch) and go on using
	// them beside the action. The returned action is read-only to the
	// caller: a policy may return the same vector again (the online
	// policies return one zero vector whenever they do not act).
	Act(t int, d, pre core.Vector, refresh bool) core.Vector
}

// Naive is the symmetric deferred-maintenance baseline: batch everything,
// and when the response-time constraint is violated (or the view is
// refreshed), process all accumulated modifications from all tables.
type Naive struct {
	model *core.CostModel
	c     float64
}

// NewNaive returns the NAIVE policy for the given cost model and
// constraint.
func NewNaive(model *core.CostModel, c float64) *Naive {
	return &Naive{model: model, c: c}
}

// Name implements Policy.
func (p *Naive) Name() string { return "NAIVE" }

// Reset implements Policy.
func (p *Naive) Reset(int) {}

// Act drains everything when the state is full or the view refreshes.
func (p *Naive) Act(t int, d, pre core.Vector, refresh bool) core.Vector {
	if refresh || p.model.Full(pre, p.c) {
		return pre.Clone()
	}
	return core.NewVector(len(pre))
}

// Oracle replays a precomputed plan. Actions are clamped to the available
// state so that replaying a plan against a slightly different arrival
// sequence stays well-formed, and a safety net keeps the run valid if the
// plan and the observed arrivals diverge.
type Oracle struct {
	model *core.CostModel
	c     float64
	plan  core.Plan
	label string
}

// NewOracle returns a policy replaying plan; label is the reported name
// (e.g. "OPT-LGM").
func NewOracle(model *core.CostModel, c float64, plan core.Plan, label string) *Oracle {
	return &Oracle{model: model, c: c, plan: plan, label: label}
}

// Name implements Policy.
func (p *Oracle) Name() string { return p.label }

// Reset implements Policy.
func (p *Oracle) Reset(int) {}

// Act replays the planned action at t, clamped to the available state;
// at refresh it drains everything, and if the planned action would leave
// a full state it is topped up with the cheapest valid completion.
func (p *Oracle) Act(t int, d, pre core.Vector, refresh bool) core.Vector {
	if refresh {
		return pre.Clone()
	}
	act := core.NewVector(len(pre))
	if t < len(p.plan) && p.plan[t] != nil {
		for i, k := range p.plan[t] {
			if k > pre[i] {
				k = pre[i]
			}
			act[i] = k
		}
	}
	post := pre.Sub(act)
	if p.model.Full(post, p.c) {
		// Plan diverged from observed arrivals; complete with the cheapest
		// greedy minimal action on the remaining state.
		extra := core.CheapestGreedyMinimalAction(post, p.model, p.c)
		act.AddInPlace(extra)
	}
	return act
}
