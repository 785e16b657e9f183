// Package arrivals generates modification arrival sequences. It covers
// the paper's two experimental workloads — a uniform stream (a constant
// number of modifications per step, Figure 6) and the non-uniform
// truncated-normal scheme of Figure 7 — plus the bursty stream the
// ablations use. All generators are deterministic given a seed.
package arrivals

import (
	"math"
	"math/rand"

	"abivm/internal/core"
)

// Generator produces the arrival counts of one base table, one time step
// at a time.
type Generator interface {
	// Next returns the number of modifications arriving at the next step.
	Next() int
}

// Uniform emits exactly Rate modifications every step.
type Uniform struct {
	Rate int
}

// Next implements Generator.
func (g *Uniform) Next() int { return g.Rate }

// NonUniform is the paper's Figure 7 stream model. For each step, with
// probability P at least one modification arrives; the count d > 0 is
// distributed as ceil(X) for X ~ Normal(Mu, Sigma²) conditioned on X > 0.
// P controls the stream rate (0.5 = slow, 0.9 = fast in the paper) and
// Sigma its stability (1 = stable, 5 = unstable); the paper keeps Mu = 1.
type NonUniform struct {
	P     float64
	Mu    float64
	Sigma float64
	Rng   *rand.Rand
}

// NewNonUniform returns a seeded non-uniform generator.
func NewNonUniform(p, mu, sigma float64, seed int64) *NonUniform {
	if p < 0 || p > 1 {
		panic("arrivals: probability out of [0,1]")
	}
	if sigma <= 0 {
		panic("arrivals: sigma must be positive")
	}
	return &NonUniform{P: p, Mu: mu, Sigma: sigma, Rng: rand.New(rand.NewSource(seed))}
}

// Next implements Generator.
func (g *NonUniform) Next() int {
	if g.Rng.Float64() >= g.P {
		return 0
	}
	// Sample X ~ N(mu, sigma^2) conditioned on X > 0 by rejection; the
	// acceptance probability is at least Phi(mu/sigma), bounded well away
	// from zero for the paper's parameter choices.
	for {
		x := g.Rng.NormFloat64()*g.Sigma + g.Mu
		if x > 0 {
			return int(math.Ceil(x))
		}
	}
}

// Bursty alternates between a quiet phase emitting Low per step and a
// burst phase emitting High per step; phase lengths are geometric with
// the given means. It stresses the ONLINE policy's rate estimator.
type Bursty struct {
	Low, High                  int
	MeanQuietLen, MeanBurstLen float64
	Rng                        *rand.Rand

	inBurst bool
}

// NewBursty returns a seeded bursty generator starting in the quiet phase.
func NewBursty(low, high int, meanQuiet, meanBurst float64, seed int64) *Bursty {
	if meanQuiet < 1 || meanBurst < 1 {
		panic("arrivals: mean phase lengths must be >= 1")
	}
	return &Bursty{Low: low, High: high, MeanQuietLen: meanQuiet, MeanBurstLen: meanBurst, Rng: rand.New(rand.NewSource(seed))}
}

// Next implements Generator.
func (g *Bursty) Next() int {
	if g.inBurst {
		if g.Rng.Float64() < 1/g.MeanBurstLen {
			g.inBurst = false
		}
		return g.High
	}
	if g.Rng.Float64() < 1/g.MeanQuietLen {
		g.inBurst = true
	}
	return g.Low
}

// Sequence materializes an arrival sequence of length steps from one
// generator per base table.
func Sequence(steps int, gens ...Generator) core.Arrivals {
	if steps <= 0 {
		panic("arrivals: steps must be positive")
	}
	out := make(core.Arrivals, steps)
	for t := range out {
		d := core.NewVector(len(gens))
		for i, g := range gens {
			d[i] = g.Next()
		}
		out[t] = d
	}
	return out
}

// UniformSequence is a convenience for the Figure 6 workload: rate[i]
// modifications on table i at every one of the steps.
func UniformSequence(steps int, rates ...int) core.Arrivals {
	gens := make([]Generator, len(rates))
	for i, r := range rates {
		gens[i] = &Uniform{Rate: r}
	}
	return Sequence(steps, gens...)
}
