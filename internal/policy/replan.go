package policy

import (
	"abivm/internal/astar"
	"abivm/internal/core"
)

// AdaptReplan extends ADAPT (Section 4.2) for settings where neither the
// refresh time nor the arrival sequence is known: every Horizon steps it
// re-runs the A* planner over a *projected* arrival sequence built from
// the current backlog and the estimated arrival rates, then executes the
// fresh plan. It trades planning CPU for plan quality between the
// prescient ADAPT and the purely reactive ONLINE heuristic. Replanning
// failures (e.g. an expansion budget) fall back to the cheapest greedy
// minimal action, so the policy always stays valid.
type AdaptReplan struct {
	model *core.CostModel
	c     float64
	est   RateEstimator
	// Horizon is both the replanning period and the length of the
	// projected arrival sequence.
	Horizon int
	// MaxExpansions bounds each A* run; 0 means unlimited.
	MaxExpansions int

	plan      core.Plan
	planStart int
	buf       actBuf
}

// NewAdaptReplan returns a replanning ADAPT policy. If est is nil an
// EWMA estimator is used.
func NewAdaptReplan(model *core.CostModel, c float64, horizon int, est RateEstimator) *AdaptReplan {
	if horizon < 1 {
		panic("policy: replanning horizon must be >= 1")
	}
	return &AdaptReplan{model: model, c: c, est: orEWMA(est), Horizon: horizon}
}

// Name implements Policy.
func (p *AdaptReplan) Name() string { return "ADAPT-RP" }

// Reset implements Policy.
func (p *AdaptReplan) Reset(n int) {
	p.est.Reset(n)
	p.plan = nil
	p.planStart = 0
}

// Act implements Policy.
func (p *AdaptReplan) Act(t int, d, pre core.Vector, refresh bool) core.Vector {
	p.est.Observe(d)
	if refresh {
		return p.buf.of(pre)
	}
	if p.plan == nil || t-p.planStart >= len(p.plan) {
		p.replan(t, pre)
	}
	var step core.Vector
	if p.plan != nil {
		step = p.plan[t-p.planStart]
	}
	act, toppedUp := p.buf.planned(step, pre, p.model, p.c)
	if toppedUp {
		// The plan's assumptions broke; replan at the next step.
		p.plan = nil
	}
	return act
}

// replan projects the arrival sequence from the estimated rates and
// solves for an optimal LGM plan over the next Horizon steps. The
// current backlog enters as the arrivals of the first projected step.
func (p *AdaptReplan) replan(t int, pre core.Vector) {
	n := len(pre)
	rates := p.est.Rates()
	arr := make(core.Arrivals, p.Horizon+1)
	// carry accumulates fractional rates so a 0.5-rate table still
	// receives one modification every two projected steps.
	carry := make([]float64, n)
	for step := range arr {
		dv := core.NewVector(n)
		if step == 0 {
			copy(dv, pre)
		} else {
			for i := range dv {
				carry[i] += rates[i]
				whole := int(carry[i])
				dv[i] = whole
				carry[i] -= float64(whole)
			}
		}
		arr[step] = dv
	}
	in, err := core.NewInstance(arr, p.model, p.c)
	if err != nil {
		p.plan = nil
		return
	}
	res, err := astar.Search(in, astar.Options{MaxExpansions: p.MaxExpansions})
	if err != nil {
		p.plan = nil
		return
	}
	// Drop the final forced refresh: the projected horizon end is not a
	// real refresh, so draining everything there would be wasteful.
	res.Plan[len(res.Plan)-1] = core.NewVector(n)
	p.plan = res.Plan
	p.planStart = t
}
