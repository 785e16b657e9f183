package policy

import "abivm/internal/core"

// OnlineMarginal is an extension of the paper's ONLINE heuristic
// (Section 4.3) that scores candidate actions by their marginal cost
// rate
//
//	H'(q) = f(q) / TimeToFull(s_t - q)
//
// instead of the paper's cumulative average (F_t + f(q))/(t + TTF). The
// cumulative form has a cold-start pathology on intercept-heavy cost
// structures: while the accumulated cost F_t is small, a tiny action with
// a tiny time-to-full keeps the historical average low even though its
// marginal rate is far worse than the alternatives, and the policy can
// lock into draining one modification per step. Scoring the marginal
// rate compares what each action buys from now on, which is the quantity
// a long-run-average minimizer actually controls. The paper lists a cost
// bound for its online heuristic as an open problem; this variant is the
// corresponding engineering improvement, evaluated in the ablation bench.
type OnlineMarginal struct {
	model *core.CostModel
	c     float64
	est   RateEstimator
	obs   *Metrics
	inner *Online // reuses the TTF machinery
	sc    actScratch
}

// NewOnlineMarginal returns the marginal-rate online policy. If est is
// nil an EWMA estimator with alpha 0.2 is used.
func NewOnlineMarginal(model *core.CostModel, c float64, est RateEstimator) *OnlineMarginal {
	if est == nil {
		est = NewEWMA(0.2)
	}
	return &OnlineMarginal{model: model, c: c, est: est, inner: NewOnline(model, c, est)}
}

// Name implements Policy.
func (p *OnlineMarginal) Name() string { return "ONLINE-M" }

// SetMetrics attaches an instrumentation bundle (see NewMetrics); nil
// (the default) detaches. The inner TTF machinery stays unmetered — its
// decisions are this policy's, not ONLINE's.
func (p *OnlineMarginal) SetMetrics(ms *Metrics) { p.obs = ms }

// Reset implements Policy.
func (p *OnlineMarginal) Reset(n int) { p.inner.Reset(n) }

// Act implements Policy.
func (p *OnlineMarginal) Act(t int, d, pre core.Vector, refresh bool) core.Vector {
	p.est.Observe(d)
	if refresh {
		return p.sc.buf.of(pre)
	}
	if !p.model.Full(pre, p.c) {
		return p.sc.buf.none(len(pre))
	}
	candidates := p.sc.candidates(pre, p.model, p.c)
	var best core.Vector
	bestScore := 0.0
	for _, q := range candidates {
		ttf := p.inner.timeToFull(p.sc.buf.postOf(pre, q))
		score := p.model.Total(q) / float64(ttf)
		if best == nil || score < bestScore || (core.ApproxEq(score, bestScore) && q.KeyLess(best)) {
			best, bestScore = q, score
		}
	}
	p.obs.observeDecision(len(candidates), best)
	return p.sc.buf.of(best)
}
