// Package sim drives maintenance policies over arrival sequences in
// discrete time, enforcing the response-time constraint and accounting
// costs. It is the measurement harness behind the paper's Figures 5–7:
// policies are simulated against a cost model.
package sim

import (
	"fmt"

	"abivm/internal/core"
	"abivm/internal/policy"
)

// Result summarizes one simulated run.
type Result struct {
	Policy string
	// Plan is the full action sequence produced by the policy.
	Plan core.Plan
	// TotalCost is Σ_t f(p_t), the paper's objective.
	TotalCost float64
	// PerTableCost[i] is the share of TotalCost spent draining table i.
	PerTableCost []float64
	// Actions counts non-zero actions; ActionsPerTable[i] counts steps at
	// which table i was drained (the |P(i)| of Theorem 2).
	Actions         int
	ActionsPerTable []int
	// MaxRefreshCost is the largest post-action refresh cost observed
	// before T; validity requires MaxRefreshCost <= C.
	MaxRefreshCost float64
}

// Run simulates pol over the instance and returns the accounting. The
// returned plan is always validated against Definition 1; a policy that
// produces an invalid action is a bug, reported as an error.
func Run(in *core.Instance, pol policy.Policy) (*Result, error) {
	n := in.N()
	tEnd := in.T()
	pol.Reset(n)

	res := &Result{
		Policy:          pol.Name(),
		Plan:            make(core.Plan, tEnd+1),
		PerTableCost:    make([]float64, n),
		ActionsPerTable: make([]int, n),
	}
	state := core.NewVector(n)
	for t := 0; t <= tEnd; t++ {
		d := in.Arrivals[t]
		state.AddInPlace(d)
		act := pol.Act(t, d.Clone(), state.Clone(), t == tEnd)
		if len(act) != n {
			return nil, fmt.Errorf("sim: policy %s returned %d components at t=%d, want %d", pol.Name(), len(act), t, n)
		}
		if !act.NonNegative() || !act.DominatedBy(state) {
			return nil, fmt.Errorf("sim: policy %s returned out-of-range action %v at t=%d (state %v)", pol.Name(), act, t, state)
		}
		state.SubInPlace(act)
		// The action is the policy's until its next Act: the plan keeps a copy.
		res.Plan[t] = act.Clone()
		if !act.IsZero() {
			res.TotalCost += in.Model.Total(act)
			res.Actions++
			for i, k := range act {
				if k > 0 {
					res.PerTableCost[i] += in.Model.TableCost(i, k)
					res.ActionsPerTable[i]++
				}
			}
		}
		if t < tEnd {
			if refreshCost := in.Model.Total(state); refreshCost > res.MaxRefreshCost {
				res.MaxRefreshCost = refreshCost
			}
		}
	}
	if err := in.Validate(res.Plan); err != nil {
		return nil, fmt.Errorf("sim: policy %s produced an invalid plan: %w", pol.Name(), err)
	}
	return res, nil
}
