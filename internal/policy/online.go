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

// ewmaAlpha is EWMA's smoothing factor, in (0, 1]: a larger one adapts
// faster to rate changes but is noisier on unstable streams.
const ewmaAlpha = 0.2

// EWMA is an exponentially weighted moving-average rate estimator with
// smoothing factor ewmaAlpha.
type EWMA struct {
	rates []float64
	seen  bool
}

// NewEWMA returns an EWMA estimator.
func NewEWMA() *EWMA { return &EWMA{} }

// orEWMA returns est, or an EWMA estimator when est is nil: the default
// of every policy that estimates rates.
func orEWMA(est RateEstimator) RateEstimator {
	if est == nil {
		return NewEWMA()
	}
	return est
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
		e.rates[i] += ewmaAlpha * (float64(x) - e.rates[i])
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
//
// ONLINE-M (NewOnlineMarginal) is this library's extension: it scores
// candidate actions by their marginal cost rate
//
//	H'(q) = f(q) / TimeToFull(s_t - q)
//
// instead of the paper's cumulative average. The cumulative form has a
// cold-start pathology on intercept-heavy cost structures: while the
// accumulated cost F_t is small, a tiny action with a tiny time-to-full
// keeps the historical average low even though its marginal rate is far
// worse than the alternatives, and the policy can lock into draining one
// modification per step. Scoring the marginal rate compares what each
// action buys from now on, which is the quantity a long-run-average
// minimizer actually controls. The paper lists a cost bound for its
// online heuristic as an open problem; this variant is the corresponding
// engineering improvement, evaluated in the ablation bench.
//
// The enumeration buffers, the candidate actions, the post-action state a
// candidate is scored on and the action returned are reused from one
// decision to the next, so once warm a decision allocates nothing.
type Online struct {
	model    *core.CostModel
	c        float64
	est      RateEstimator
	marginal bool // score H'(q), not H(q)
	obs      *Metrics

	enum  core.ActionScratch
	cands []core.Vector
	buf   actBuf

	costSoFar float64
}

// NewOnline returns the ONLINE policy. If est is nil an EWMA estimator is
// used.
func NewOnline(model *core.CostModel, c float64, est RateEstimator) *Online {
	return &Online{model: model, c: c, est: orEWMA(est)}
}

// NewOnlineMarginal returns the ONLINE-M policy, ONLINE scoring the
// marginal cost rate. If est is nil an EWMA estimator is used.
func NewOnlineMarginal(model *core.CostModel, c float64, est RateEstimator) *Online {
	return &Online{model: model, c: c, est: orEWMA(est), marginal: true}
}

// Name implements Policy.
func (p *Online) Name() string {
	if p.marginal {
		return "ONLINE-M"
	}
	return "ONLINE"
}

// SetMetrics attaches an instrumentation bundle (see NewMetrics); nil
// (the default) detaches.
func (p *Online) SetMetrics(ms *Metrics) { p.obs = ms }

// Reset implements Policy.
func (p *Online) Reset(n int) {
	p.est.Reset(n)
	p.costSoFar = 0
}

// Act implements Policy.
func (p *Online) Act(t int, d, pre core.Vector, refresh bool) core.Vector {
	p.est.Observe(d)
	if refresh {
		p.costSoFar += p.model.Total(pre)
		return p.buf.of(pre)
	}
	if !p.model.Full(pre, p.c) {
		return p.buf.none(len(pre))
	}
	p.cands = p.enum.GreedyActionsInto(p.cands, pre, p.model, p.c, true)
	var best core.Vector
	bestH := 0.0
	for _, q := range p.cands {
		h := p.scoreH(t, pre, q)
		if best == nil || h < bestH || (core.ApproxEq(h, bestH) && q.KeyLess(best)) {
			best, bestH = q, h
		}
	}
	p.costSoFar += p.model.Total(best)
	p.obs.observeDecision(len(p.cands), best)
	return p.buf.of(best)
}

// scoreH evaluates candidate q at time t for pre-action state pre: H'(q)
// for ONLINE-M, H(q) for ONLINE.
func (p *Online) scoreH(t int, pre, q core.Vector) float64 {
	ttf := p.timeToFull(p.buf.postOf(pre, q))
	if p.marginal {
		return p.model.Total(q) / float64(ttf)
	}
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
