package policy

import "abivm/internal/core"

// Periodic is the classic periodic-maintenance baseline (Colby et al.,
// SIGMOD 97, discussed in the paper's related work): every Period steps
// it drains every delta queue, regardless of the constraint. Because a
// fixed period cannot adapt to arrival bursts, it would violate the
// response-time constraint on its own; a lazy safety net drains
// everything whenever the state is full, which makes the policy valid
// and turns it into "NAIVE with extra scheduled flushes" — a useful
// lower baseline for the benches.
type Periodic struct {
	model  *core.CostModel
	c      float64
	period int
	buf    actBuf
}

// NewPeriodic returns a periodic policy flushing every period steps.
func NewPeriodic(model *core.CostModel, c float64, period int) *Periodic {
	if period < 1 {
		panic("policy: period must be >= 1")
	}
	return &Periodic{model: model, c: c, period: period}
}

// Name implements Policy.
func (p *Periodic) Name() string { return "PERIODIC" }

// Reset implements Policy.
func (p *Periodic) Reset(int) {}

// Act implements Policy.
func (p *Periodic) Act(t int, d, pre core.Vector, refresh bool) core.Vector {
	if refresh || (t+1)%p.period == 0 || p.model.Full(pre, p.c) {
		return p.buf.of(pre)
	}
	return p.buf.none(len(pre))
}
