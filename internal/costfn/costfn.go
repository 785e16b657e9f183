// Package costfn provides the cost-function library for asymmetric batch
// incremental view maintenance: standard monotone subadditive shapes
// (linear, step, concave power/log, piecewise linear), a cap modelling
// the switch to full recomputation, and property probes that check
// monotonicity and subadditivity over a range.
//
// Every function here satisfies the paper's two requirements: Cost(0)==0,
// Cost is non-decreasing, and Cost(x+y) <= Cost(x)+Cost(y). The Step
// function is the paper's example of a subadditive but non-concave cost
// (the I/O cost ceil(x/B) of scanning a compactly stored table).
package costfn

import (
	"fmt"
	"math"
	"sort"

	"abivm/internal/core"
)

// Linear is the cost function f(k) = a*k + b for k >= 1 and f(0) = 0.
// b models a fixed per-batch setup cost (parsing, optimization, building
// hash tables, loading index pages); a is the per-modification cost.
// Linear costs are the practically dominant case: Theorem 2 of the paper
// shows the best LGM plan is globally optimal under them.
type Linear struct {
	A float64 // per-modification cost; must be > 0
	B float64 // per-batch setup cost; must be >= 0
}

// NewLinear validates and returns a Linear cost function.
func NewLinear(a, b float64) (Linear, error) {
	if a <= 0 {
		return Linear{}, fmt.Errorf("costfn: linear slope must be positive, got %g", a)
	}
	if b < 0 {
		return Linear{}, fmt.Errorf("costfn: linear intercept must be non-negative, got %g", b)
	}
	return Linear{A: a, B: b}, nil
}

// Cost returns a*k+b for k>=1 and 0 for k==0.
func (f Linear) Cost(k int) float64 {
	if k <= 0 {
		return 0
	}
	return f.A*float64(k) + f.B
}

// MaxBatch returns the largest k with Cost(k) <= budget in closed form.
func (f Linear) MaxBatch(budget float64) int {
	if budget < f.A+f.B {
		return 0
	}
	return int(math.Floor((budget - f.B) / f.A))
}

// Step is the subadditive, non-concave cost f(k) = ceil(k/B) * C: e.g. the
// I/O cost of scanning k rows packed into blocks of B rows at cost C per
// block. This is the family used to show Theorem 1 is tight.
type Step struct {
	BlockSize int     // rows per block; must be >= 1
	BlockCost float64 // cost per block; must be > 0
}

// NewStep validates and returns a Step cost function.
func NewStep(blockSize int, blockCost float64) (Step, error) {
	if blockSize < 1 {
		return Step{}, fmt.Errorf("costfn: block size must be >= 1, got %d", blockSize)
	}
	if blockCost <= 0 {
		return Step{}, fmt.Errorf("costfn: block cost must be positive, got %g", blockCost)
	}
	return Step{BlockSize: blockSize, BlockCost: blockCost}, nil
}

// Cost returns ceil(k/BlockSize)*BlockCost.
func (f Step) Cost(k int) float64 {
	if k <= 0 {
		return 0
	}
	blocks := (k + f.BlockSize - 1) / f.BlockSize
	return float64(blocks) * f.BlockCost
}

// MaxBatch returns the largest k with Cost(k) <= budget in closed form.
func (f Step) MaxBatch(budget float64) int {
	if budget < f.BlockCost {
		return 0
	}
	blocks := int(math.Floor(budget / f.BlockCost))
	return blocks * f.BlockSize
}

// Power is the concave cost f(k) = a * k^e with 0 < e <= 1, plus an
// optional setup cost b (f(k) = a*k^e + b for k >= 1). Concave costs model
// strongly batching-friendly processing such as sort-merge maintenance.
type Power struct {
	A float64 // scale; must be > 0
	E float64 // exponent in (0, 1]
	B float64 // per-batch setup cost; must be >= 0
}

// NewPower validates and returns a Power cost function.
func NewPower(a, e, b float64) (Power, error) {
	if a <= 0 {
		return Power{}, fmt.Errorf("costfn: power scale must be positive, got %g", a)
	}
	if e <= 0 || e > 1 {
		return Power{}, fmt.Errorf("costfn: power exponent must be in (0,1], got %g", e)
	}
	if b < 0 {
		return Power{}, fmt.Errorf("costfn: power setup cost must be non-negative, got %g", b)
	}
	return Power{A: a, E: e, B: b}, nil
}

// Cost returns a*k^e + b for k>=1 and 0 for k==0.
func (f Power) Cost(k int) float64 {
	if k <= 0 {
		return 0
	}
	return f.A*math.Pow(float64(k), f.E) + f.B
}

// Log is the concave cost f(k) = a*log2(1+k) + b for k >= 1; it models
// index-dominated maintenance whose marginal cost collapses with batching.
type Log struct {
	A float64 // scale; must be > 0
	B float64 // per-batch setup cost; must be >= 0
}

// NewLog validates and returns a Log cost function.
func NewLog(a, b float64) (Log, error) {
	if a <= 0 {
		return Log{}, fmt.Errorf("costfn: log scale must be positive, got %g", a)
	}
	if b < 0 {
		return Log{}, fmt.Errorf("costfn: log setup cost must be non-negative, got %g", b)
	}
	return Log{A: a, B: b}, nil
}

// Cost returns a*log2(1+k)+b for k>=1 and 0 for k==0.
func (f Log) Cost(k int) float64 {
	if k <= 0 {
		return 0
	}
	return f.A*math.Log2(1+float64(k)) + f.B
}

// PiecewiseLinear interpolates linearly between knot points and
// extrapolates the last segment's slope beyond the final knot. Knots must
// start at (0, 0) and be strictly increasing in k with non-decreasing,
// concave-compatible costs; NewPiecewiseLinear verifies monotonicity and
// subadditivity is probed by the caller when needed.
type PiecewiseLinear struct {
	ks []int
	cs []float64
}

// Knot is one (batch size, cost) sample of a piecewise-linear function.
type Knot struct {
	K    int
	Cost float64
}

// NewPiecewiseLinear builds a piecewise-linear cost function from knots.
// An implicit (0,0) knot is required as the first entry.
func NewPiecewiseLinear(knots []Knot) (*PiecewiseLinear, error) {
	if len(knots) < 2 {
		return nil, fmt.Errorf("costfn: need at least two knots, got %d", len(knots))
	}
	// The (0,0) anchor knot must be exact, not approximate.
	if knots[0].K != 0 || knots[0].Cost != 0 {
		return nil, fmt.Errorf("costfn: first knot must be (0,0), got (%d,%g)", knots[0].K, knots[0].Cost)
	}
	f := &PiecewiseLinear{ks: make([]int, len(knots)), cs: make([]float64, len(knots))}
	for i, kn := range knots {
		if i > 0 {
			if kn.K <= knots[i-1].K {
				return nil, fmt.Errorf("costfn: knot batch sizes must strictly increase (knot %d)", i)
			}
			if kn.Cost < knots[i-1].Cost {
				return nil, fmt.Errorf("costfn: knot costs must be non-decreasing (knot %d)", i)
			}
		}
		f.ks[i] = kn.K
		f.cs[i] = kn.Cost
	}
	return f, nil
}

// Cost interpolates between knots; beyond the last knot it extrapolates
// with the final segment's slope.
func (f *PiecewiseLinear) Cost(k int) float64 {
	if k <= 0 {
		return 0
	}
	last := len(f.ks) - 1
	if k >= f.ks[last] {
		slope := f.segSlope(last - 1)
		return f.cs[last] + slope*float64(k-f.ks[last])
	}
	// Find the segment containing k.
	idx := sort.SearchInts(f.ks, k)
	if idx < len(f.ks) && f.ks[idx] == k {
		return f.cs[idx]
	}
	lo := idx - 1
	slope := f.segSlope(lo)
	return f.cs[lo] + slope*float64(k-f.ks[lo])
}

func (f *PiecewiseLinear) segSlope(i int) float64 {
	return (f.cs[i+1] - f.cs[i]) / float64(f.ks[i+1]-f.ks[i])
}

// Knots returns a copy of the knot sequence, including the (0,0) anchor
// — reporting tools (EXPLAIN IVM) render fitted functions from it.
func (f *PiecewiseLinear) Knots() []Knot {
	out := make([]Knot, len(f.ks))
	for i := range f.ks {
		out[i] = Knot{K: f.ks[i], Cost: f.cs[i]}
	}
	return out
}

// Capped is min(Inner(k), Cap): beyond some batch size the optimizer
// abandons the incremental strategy for a full recomputation whose cost
// does not depend on the batch (e.g. a table scan / full refresh). The
// minimum of a monotone subadditive function and a positive constant is
// itself monotone and subadditive, so Capped stays a valid cost function
// while modelling the plan switch.
type Capped struct {
	Inner core.CostFunc
	Cap   float64
}

// NewCapped validates and returns a capped cost function.
func NewCapped(inner core.CostFunc, cap float64) (Capped, error) {
	if inner == nil {
		return Capped{}, fmt.Errorf("costfn: capped needs an inner function")
	}
	if cap <= 0 {
		return Capped{}, fmt.Errorf("costfn: cap must be positive, got %g", cap)
	}
	return Capped{Inner: inner, Cap: cap}, nil
}

// Cost returns min(Inner(k), Cap) with Cost(0) == 0.
func (f Capped) Cost(k int) float64 {
	if k <= 0 {
		return 0
	}
	c := f.Inner.Cost(k)
	if c > f.Cap {
		return f.Cap
	}
	return c
}
