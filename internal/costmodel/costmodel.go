// Package costmodel measures the batch cost functions f_i(k) of a
// maintained view by driving real update batches through a pubsub.Probe —
// the broker's live-table writer and classic engine — and converting the
// work units each drain counted into pseudo-millisecond costs. This is
// the paper's methodology ("the cost functions can be ... measured by
// experiments"): the measured samples back the simulator, the A* planner,
// and the ONLINE policy, and a least-squares linear fit recovers the
// (a, b) parameters that Theorems 2 and 4 reason about.
package costmodel

import (
	"fmt"

	"abivm/internal/core"
	"abivm/internal/costfn"
	"abivm/internal/ivm"
	"abivm/internal/pubsub"
	"abivm/internal/storage"
)

// Measurement is a sampled batch-cost curve for one delta table.
type Measurement struct {
	Alias string
	K     []int     // batch sizes, increasing
	Cost  []float64 // pseudo-ms cost of processing a batch of K[i]
}

// Measure samples the cost of processing batches of the given sizes. For
// each k it applies k modifications from gen through the probe, drains
// them as one batch, and records the pseudo-millisecond cost of the work
// that drain counted under w.
// The database state advances between samples (the workload is pure
// updates, so table sizes stay constant — the same property the paper's
// update workload has).
func Measure(p *pubsub.Probe, alias string, gen func() ivm.Mod, ks []int, w storage.Weights) (*Measurement, error) {
	// The sample grid must be strictly increasing: duplicates would fold
	// two measurements of drifted state into one fitted point, and
	// out-of-order sizes would break Piecewise's knot ordering silently.
	for i, k := range ks {
		if k <= 0 {
			return nil, fmt.Errorf("costmodel: batch size %d must be positive", k)
		}
		if i > 0 && k <= ks[i-1] {
			return nil, fmt.Errorf("costmodel: batch sizes must be strictly increasing (ks[%d]=%d after %d)", i, k, ks[i-1])
		}
	}
	out := &Measurement{Alias: alias}
	for _, k := range ks {
		for j := 0; j < k; j++ {
			if err := p.Apply(gen()); err != nil {
				return nil, err
			}
		}
		work, err := p.Drain(alias, k)
		if err != nil {
			return nil, err
		}
		out.K = append(out.K, k)
		out.Cost = append(out.Cost, w.Cost(work))
	}
	return out, nil
}

// FitLinear fits cost = a*k + b by ordinary least squares and returns the
// linear cost function. A non-positive fitted slope (possible when the
// curve is flat and noisy) is clamped to a small positive value so the
// result remains a valid cost function.
func (ms *Measurement) FitLinear() (costfn.Linear, error) {
	n := float64(len(ms.K))
	if n < 2 {
		return costfn.Linear{}, fmt.Errorf("costmodel: need at least 2 samples, got %d", len(ms.K))
	}
	var sumX, sumY, sumXY, sumXX float64
	for i := range ms.K {
		x, y := float64(ms.K[i]), ms.Cost[i]
		sumX += x
		sumY += y
		sumXY += x * y
		sumXX += x * x
	}
	denom := n*sumXX - sumX*sumX
	if core.ApproxEq(denom, 0) {
		return costfn.Linear{}, fmt.Errorf("costmodel: degenerate sample set")
	}
	a := (n*sumXY - sumX*sumY) / denom
	b := (sumY - a*sumX) / n
	const minSlope = 1e-6
	if a < minSlope {
		a = minSlope
	}
	if b < 0 {
		b = 0
	}
	return costfn.NewLinear(a, b)
}

// Piecewise converts the measurement into a piecewise-linear cost
// function anchored at (0, 0), clamping any non-monotone samples upward.
// It reproduces the measured curve exactly at the sampled batch sizes and
// interpolates between them — the empirical cost functions behind the
// validation experiment (Figure 5).
func (ms *Measurement) Piecewise() (*costfn.PiecewiseLinear, error) {
	knots := []costfn.Knot{{K: 0, Cost: 0}}
	prev := 0.0
	for i := range ms.K {
		c := ms.Cost[i]
		if c < prev {
			c = prev
		}
		knots = append(knots, costfn.Knot{K: ms.K[i], Cost: c})
		prev = c
	}
	return costfn.NewPiecewiseLinear(knots)
}

// Fit converts the measurement into a cost function of the named
// functional form: "linear" (FitLinear) or "piecewise" (Piecewise).
func (ms *Measurement) Fit(fit string) (core.CostFunc, error) {
	switch fit {
	case "linear":
		return ms.FitLinear()
	case "piecewise":
		return ms.Piecewise()
	}
	return nil, fmt.Errorf("costmodel: unknown fit %q (want linear or piecewise)", fit)
}

// Model fits one cost function per measured alias and assembles a
// core.CostModel in the order given. fit selects the functional form, as
// in Measurement.Fit.
func Model(fit string, ms ...*Measurement) (*core.CostModel, error) {
	funcs := make([]core.CostFunc, len(ms))
	for i, m := range ms {
		f, err := m.Fit(fit)
		if err != nil {
			return nil, err
		}
		funcs[i] = f
	}
	return core.NewCostModel(funcs...), nil
}
