package policy

import "abivm/internal/core"

// Adapt executes a plan optimized for an estimated refresh time T0 under
// an arbitrary actual refresh time T (Section 4.2):
//
//   - If T == T0, the precomputed plan runs verbatim.
//   - If T < T0, the plan is truncated: execution stops at T, where all
//     remaining modifications are processed.
//   - If T > T0, the plan is executed repeatedly (the cycle includes the
//     plan's final full refresh at its step T0) until T, where all
//     remaining modifications are processed.
//
// Theorem 4: under linear cost functions the resulting plan costs at most
// OPT_T + Σ_i b_i when T < T0, and at most OPT_T + ceil(T/T0)·Σ_i b_i when
// T > T0 (assuming the arrival sequence is periodic with period T0).
//
// Planned actions are clamped to the available state, and if a planned
// (or absent) action would leave a full state the policy tops it up with
// the cheapest greedy minimal valid action, so runs against arrival
// sequences that deviate from the planning-time sequence remain valid.
type Adapt struct {
	model *core.CostModel
	c     float64
	plan  core.Plan // plan over [0, T0], plan[T0] is the full refresh
	buf   actBuf
}

// NewAdapt returns the ADAPT policy wrapping a plan computed for refresh
// time T0 = len(plan)-1 (typically an optimal LGM plan from the astar
// package).
func NewAdapt(model *core.CostModel, c float64, plan core.Plan) *Adapt {
	if len(plan) == 0 {
		panic("policy: Adapt needs a non-empty plan")
	}
	return &Adapt{model: model, c: c, plan: plan}
}

// Name implements Policy.
func (p *Adapt) Name() string { return "ADAPT" }

// Reset implements Policy.
func (p *Adapt) Reset(int) {}

// Act implements Policy.
func (p *Adapt) Act(t int, d, pre core.Vector, refresh bool) core.Vector {
	if refresh {
		return p.buf.of(pre)
	}
	act, _ := p.buf.planned(p.plan[t%len(p.plan)], pre, p.model, p.c)
	return act
}
