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
//
// Two extensions are variants of these: PERIODIC is Naive with a flush
// period (NewPeriodic), and ONLINE-M is Online scoring the marginal cost
// rate (NewOnlineMarginal).
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
	// them beside the action. The returned action is the policy's own and
	// read-only to the caller, valid until the policy's next Act or
	// Reset: every policy here fills one vector of its own and returns it
	// each time, so a decision allocates nothing. A caller that keeps an
	// action past that clones it (sim.Run does, for its plan).
	Act(t int, d, pre core.Vector, refresh bool) core.Vector
}

// actBuf is the action a policy fills and returns, reused by every Act,
// and the post-action state an action is checked or scored on.
type actBuf struct{ act, post core.Vector }

// none returns the action set to drain nothing from n tables.
func (b *actBuf) none(n int) core.Vector {
	if len(b.act) != n {
		b.act = core.NewVector(n)
	}
	clear(b.act)
	return b.act
}

// of returns the action set to v: every pending modification when v is
// the pre-action state.
func (b *actBuf) of(v core.Vector) core.Vector {
	b.act = append(b.act[:0], v...)
	return b.act
}

// planned returns the action set to a planned step clamped to pre — no
// drain where the plan has no step — and topped up with the cheapest
// greedy minimal valid action when it would leave pre full, reporting
// whether it was.
func (b *actBuf) planned(step, pre core.Vector, m *core.CostModel, c float64) (core.Vector, bool) {
	act := b.none(len(pre))
	for i, k := range step {
		act[i] = min(k, pre[i])
	}
	post := b.postOf(pre, act)
	if !m.Full(post, c) {
		return act, false
	}
	act.AddInPlace(core.CheapestGreedyMinimalAction(post, m, c))
	return act, true
}

// postOf returns pre - q in the buffer's post-state vector, valid until
// the next call.
func (b *actBuf) postOf(pre, q core.Vector) core.Vector {
	b.post = append(b.post[:0], pre...)
	b.post.SubInPlace(q)
	return b.post
}

// Naive is the symmetric deferred-maintenance baseline: batch everything,
// and when the response-time constraint is violated (or the view is
// refreshed), process all accumulated modifications from all tables.
//
// With a flush period it is PERIODIC, the classic periodic-maintenance
// baseline (Colby et al., SIGMOD 97, discussed in the paper's related
// work): every period steps it also drains every delta queue, regardless
// of the constraint. A fixed period cannot adapt to arrival bursts, so the
// drain on a full state stays as the safety net that keeps it valid.
type Naive struct {
	model  *core.CostModel
	c      float64
	period int // 0: no scheduled flush
	buf    actBuf
}

// NewNaive returns the NAIVE policy for the given cost model and
// constraint.
func NewNaive(model *core.CostModel, c float64) *Naive {
	return &Naive{model: model, c: c}
}

// NewPeriodic returns the PERIODIC policy: NAIVE that also flushes every
// period steps.
func NewPeriodic(model *core.CostModel, c float64, period int) *Naive {
	if period < 1 {
		panic("policy: period must be >= 1")
	}
	return &Naive{model: model, c: c, period: period}
}

// Name implements Policy.
func (p *Naive) Name() string {
	if p.period > 0 {
		return "PERIODIC"
	}
	return "NAIVE"
}

// Reset implements Policy.
func (p *Naive) Reset(int) {}

// Act drains everything when the state is full, a scheduled flush falls
// due or the view refreshes.
func (p *Naive) Act(t int, d, pre core.Vector, refresh bool) core.Vector {
	if refresh || (p.period > 0 && (t+1)%p.period == 0) || p.model.Full(pre, p.c) {
		return p.buf.of(pre)
	}
	return p.buf.none(len(pre))
}
