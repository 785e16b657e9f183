package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place. An empty sample gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the distance between the first and third quartile as a
// share of the median, computed the way Python's
// statistics.quantiles(values, n=4) does (exclusive method) so it
// matches what the benchmark's acceptance procedure computes. Fewer
// than two values, or a zero median, give 0.
func spread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	q := func(i int) float64 {
		// Exclusive method: the i-th of 4 cut points sits at i*(n+1)/4.
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return xs[j-1] + (xs[j]-xs[j-1])*frac
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}
