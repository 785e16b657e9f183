package policy

import "abivm/internal/core"

// ttfHorizon caps TimeToFull predictions: when estimated arrival rates are
// (near) zero the state may never fill, and the paper's H ratio then
// reduces to picking the cheapest action. 1<<20 steps is far beyond any
// experiment horizon.
const ttfHorizon = 1 << 20

// RateEstimator predicts per-table arrival rates from observed arrivals.
// The Online policy queries it to compute TimeToFull.
type RateEstimator interface {
	// Reset prepares the estimator for n tables.
	Reset(n int)
	// Observe feeds the arrival vector of one time step.
	Observe(d core.Vector)
	// Rates returns the current per-table arrival-rate estimate
	// (modifications per step). The caller must not mutate the result.
	Rates() []float64
}

// EWMA is an exponentially weighted moving-average rate estimator with
// smoothing factor Alpha in (0, 1]; larger Alpha adapts faster to rate
// changes but is noisier on unstable streams.
type EWMA struct {
	Alpha float64
	rates []float64
	seen  bool
}

// NewEWMA returns an EWMA estimator with the given smoothing factor.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("policy: EWMA alpha must be in (0,1]")
	}
	return &EWMA{Alpha: alpha}
}

// Reset implements RateEstimator.
func (e *EWMA) Reset(n int) {
	e.rates = make([]float64, n)
	e.seen = false
}

// Observe implements RateEstimator.
func (e *EWMA) Observe(d core.Vector) {
	if !e.seen {
		for i, x := range d {
			e.rates[i] = float64(x)
		}
		e.seen = true
		return
	}
	for i, x := range d {
		e.rates[i] += e.Alpha * (float64(x) - e.rates[i])
	}
}

// Rates implements RateEstimator.
func (e *EWMA) Rates() []float64 { return e.rates }

// FixedRates is an oracle rate estimator that always reports the given
// per-table rates; the ONLINE TimeToFull ablation uses it to isolate the
// error introduced by rate estimation.
type FixedRates []float64

// Reset implements RateEstimator.
func (FixedRates) Reset(int) {}

// Observe implements RateEstimator.
func (FixedRates) Observe(core.Vector) {}

// Rates implements RateEstimator.
func (f FixedRates) Rates() []float64 { return f }

// Online is the heuristic policy of Section 4.3. It requires no knowledge
// of the arrival sequence or the refresh time. When the pre-action state
// is full at time t it picks, among all greedy minimal valid actions q,
// the one minimizing the amortized cost
//
//	H(q) = (F_t + f(q)) / (t + TimeToFull(s_t - q))
//
// where F_t is the maintenance cost already incurred and TimeToFull
// predicts how many further steps the post-action state can absorb before
// becoming full again, given the estimated arrival rates.
type Online struct {
	model *core.CostModel
	c     float64
	est   RateEstimator
	sc    actScratch

	costSoFar float64
	steps     int // steps observed since Reset; used as t in H when t=0
}

// actScratch is what the online policies reuse from one decision to the
// next — the enumeration buffers, the candidate actions, the post-action
// state a candidate is scored on and the zero action of a step they do
// not act at — so a decision allocates only the action it returns, and a
// step without one nothing.
type actScratch struct {
	enum  core.ActionScratch
	cands []core.Vector
	post  core.Vector
	idle  core.Vector
}

// none returns the zero action over n tables, the same vector every time:
// callers only read an action.
func (sc *actScratch) none(n int) core.Vector {
	if len(sc.idle) != n {
		sc.idle = core.NewVector(n)
	}
	return sc.idle
}

// candidates enumerates the greedy minimal valid actions of pre into the
// scratch; they are valid until the next call.
func (sc *actScratch) candidates(pre core.Vector, m *core.CostModel, c float64) []core.Vector {
	sc.cands = sc.enum.GreedyActionsInto(sc.cands, pre, m, c, true)
	return sc.cands
}

// postOf returns pre - q in the scratch's post-state vector, valid until
// the next call.
func (sc *actScratch) postOf(pre, q core.Vector) core.Vector {
	sc.post = append(sc.post[:0], pre...)
	sc.post.SubInPlace(q)
	return sc.post
}

// NewOnline returns the ONLINE policy. If est is nil an EWMA estimator
// with alpha 0.2 is used.
func NewOnline(model *core.CostModel, c float64, est RateEstimator) *Online {
	if est == nil {
		est = NewEWMA(0.2)
	}
	return &Online{model: model, c: c, est: est}
}

// Name implements Policy.
func (p *Online) Name() string { return "ONLINE" }

// Reset implements Policy.
func (p *Online) Reset(n int) {
	p.est.Reset(n)
	p.costSoFar = 0
	p.steps = 0
}

// Act implements Policy.
func (p *Online) Act(t int, d, pre core.Vector, refresh bool) core.Vector {
	p.est.Observe(d)
	p.steps++
	if refresh {
		act := pre.Clone()
		p.costSoFar += p.model.Total(act)
		return act
	}
	if !p.model.Full(pre, p.c) {
		return p.sc.none(len(pre))
	}
	candidates := p.sc.candidates(pre, p.model, p.c)
	var best core.Vector
	bestH := 0.0
	for _, q := range candidates {
		h := p.scoreH(t, pre, q)
		if best == nil || h < bestH || (core.ApproxEq(h, bestH) && q.KeyLess(best)) {
			best, bestH = q, h
		}
	}
	p.costSoFar += p.model.Total(best)
	return best.Clone()
}

// scoreH evaluates H(q) at time t for pre-action state pre.
func (p *Online) scoreH(t int, pre, q core.Vector) float64 {
	ttf := p.timeToFull(p.sc.postOf(pre, q))
	return (p.costSoFar + p.model.Total(q)) / float64(t+ttf)
}

// timeToFull predicts the number of steps until the state becomes full
// again, starting from state s, under the estimated arrival rates.
// Fullness is monotone in the number of steps, so the first full step
// is found by doubling from 1 until a step is full — ttfHorizon, a power
// of two, if none before it is — and then bisecting the last doubling's
// interval: about 2·log2(TTF) cost evaluations instead of the 21 a
// bisection of all of [1, ttfHorizon] takes.
func (p *Online) timeToFull(s core.Vector) int {
	rates := p.est.Rates()
	fullAfter := func(k int) bool {
		total := 0.0
		for i, base := range s {
			expect := base + int(rates[i]*float64(k)+0.5)
			total += p.model.TableCost(i, expect)
		}
		return !core.ApproxLE(total, p.c)
	}
	hi := 1
	for !fullAfter(hi) {
		if hi == ttfHorizon {
			return ttfHorizon
		}
		hi *= 2
	}
	lo := hi/2 + 1 // hi/2 was not full (or hi is 1)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if fullAfter(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
