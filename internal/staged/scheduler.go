package staged

import (
	"fmt"

	"abivm/internal/core"
)

// Scheduler decides staged maintenance actions online.
type Scheduler interface {
	Name() string
	// Act is called once per step with the pre-action state (arrivals of
	// the step already in U); refresh marks the final step, where the
	// returned action must drain everything through both stages.
	Act(t int, s State, refresh bool) Action
}

// fullDrain builds the action that empties the whole backlog.
func fullDrain(m *Model, s State) Action {
	n := m.N()
	a := Action{StageA: s.U.Clone(), StageB: core.NewVector(n)}
	for i := 0; i < n; i++ {
		a.StageB[i] = s.G[i] + m.survivors(i, s.U[i])
	}
	return a
}

// SingleStage is the paper's original model lifted into the staged
// setting: an action on table i always runs the full pipeline (stage A
// immediately followed by stage B), so staged survivors never persist.
// On violation it greedily drains whole tables, cheapest first, until
// the state is no longer full — the direct analogue of a greedy minimal
// symmetric policy.
type SingleStage struct {
	m *Model
	c float64
}

// NewSingleStage returns the single-stage baseline.
func NewSingleStage(m *Model, c float64) *SingleStage { return &SingleStage{m: m, c: c} }

// Name implements Scheduler.
func (p *SingleStage) Name() string { return "SINGLE-STAGE" }

// Act implements Scheduler.
func (p *SingleStage) Act(t int, s State, refresh bool) Action {
	if refresh {
		return fullDrain(p.m, s)
	}
	if !p.m.Full(s, p.c) {
		n := p.m.N()
		return Action{StageA: core.NewVector(n), StageB: core.NewVector(n)}
	}
	// Drain whole tables (both stages) in increasing order of pipeline
	// cost until non-full.
	n := p.m.N()
	act := Action{StageA: core.NewVector(n), StageB: core.NewVector(n)}
	work := s.Clone()
	for p.m.Full(work, p.c) {
		best, bestCost := -1, 0.0
		for i := 0; i < n; i++ {
			if work.U[i] == 0 && work.G[i] == 0 {
				continue
			}
			cost := 0.0
			if work.U[i] > 0 {
				cost += p.m.tables[i].A.Cost(work.U[i])
			}
			if b := p.m.survivors(i, work.U[i]) + work.G[i]; b > 0 {
				cost += p.m.tables[i].B.Cost(b)
			}
			if best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		if best < 0 {
			break
		}
		act.StageA[best] += work.U[best]
		act.StageB[best] += p.m.survivors(best, work.U[best]) + work.G[best]
		work.G[best] = 0
		work.U[best] = 0
	}
	return act
}

// TwoStage exploits intra-query asymmetry: it may run stage A alone,
// staging survivors in front of the expensive stage B. Stage A of every
// table is drained eagerly each step (cheap, setup-free prefixes are
// near-free and shrink the future stage-B population); stage B is
// drained lazily, only when the constraint forces it, whole tables at a
// time, cheapest first.
type TwoStage struct {
	m *Model
	c float64
}

// NewTwoStage returns the two-stage scheduler.
func NewTwoStage(m *Model, c float64) *TwoStage {
	return &TwoStage{m: m, c: c}
}

// Name implements Scheduler.
func (p *TwoStage) Name() string { return "TWO-STAGE" }

// Act implements Scheduler.
func (p *TwoStage) Act(t int, s State, refresh bool) Action {
	if refresh {
		return fullDrain(p.m, s)
	}
	n := p.m.N()
	act := Action{StageA: core.NewVector(n), StageB: core.NewVector(n)}
	work := s.Clone()
	// Eager stage A: drain every prefix every step.
	for i := 0; i < n; i++ {
		if work.U[i] == 0 {
			continue
		}
		act.StageA[i] = work.U[i]
		work.G[i] += p.m.survivors(i, work.U[i])
		work.U[i] = 0
	}
	// Lazy stage B: only when forced, cheapest whole stage first.
	for p.m.Full(work, p.c) {
		best, bestCost := -1, 0.0
		for i := 0; i < n; i++ {
			total := work.G[i] + p.m.survivors(i, work.U[i])
			if total == 0 {
				continue
			}
			cost := p.m.tables[i].B.Cost(total)
			if work.U[i] > 0 {
				cost += p.m.tables[i].A.Cost(work.U[i])
			}
			if best < 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		if best < 0 {
			break
		}
		// Push any remaining prefix through too, then drain stage B.
		act.StageA[best] += work.U[best]
		work.G[best] += p.m.survivors(best, work.U[best])
		work.U[best] = 0
		act.StageB[best] += work.G[best]
		work.G[best] = 0
	}
	return act
}

// RunResult accounts one simulated run.
type RunResult struct {
	Scheduler  string
	TotalCost  float64
	Actions    int
	MaxRefresh float64
}

// Run simulates a scheduler over an arrival sequence (arrivals land in
// U each step; the final step is the refresh). It validates that every
// post-action state respects the constraint.
func Run(m *Model, sched Scheduler, arrivals core.Arrivals, c float64) (*RunResult, error) {
	if arrivals.N() != m.N() {
		return nil, fmt.Errorf("staged: arrivals cover %d tables, model %d", arrivals.N(), m.N())
	}
	s := NewState(m.N())
	res := &RunResult{Scheduler: sched.Name()}
	tEnd := arrivals.T()
	for t := 0; t <= tEnd; t++ {
		s.U.AddInPlace(arrivals[t])
		act := sched.Act(t, s.Clone(), t == tEnd)
		if !act.IsZero() {
			res.TotalCost += m.Cost(act)
			res.Actions++
		}
		if err := m.Apply(&s, act); err != nil {
			return nil, fmt.Errorf("staged: %s at t=%d: %w", sched.Name(), t, err)
		}
		if t < tEnd {
			if rc := m.RefreshCost(s); rc > c {
				return nil, fmt.Errorf("staged: %s violated the constraint at t=%d: %.4g > %.4g", sched.Name(), t, rc, c)
			} else if rc > res.MaxRefresh {
				res.MaxRefresh = rc
			}
		}
	}
	if !s.U.IsZero() || !s.G.IsZero() {
		return nil, fmt.Errorf("staged: %s left residual state %v/%v", sched.Name(), s.U, s.G)
	}
	return res, nil
}
