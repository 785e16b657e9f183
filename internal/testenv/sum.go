package testenv

import (
	"math"
	"math/big"
)

// RoundedSum is the reference an exact float64 sum is tested against:
// term i counted weights[i] times (a negative weight retracts it), the
// finite terms summed in math/big with room to spare and rounded to the
// nearest float64, ties to even. Non-finite terms are counted aside: a
// NaN still held, or +Inf and -Inf both, give NaN, one infinity alone
// gives it, and a zero sum is +0.
func RoundedSum(terms []float64, weights []int64) float64 {
	var nan, posInf, negInf int64
	sum := new(big.Float).SetPrec(4096)
	var term, weight big.Float
	for i, x := range terms {
		w := weights[i]
		switch {
		case math.IsNaN(x):
			nan += w
		case math.IsInf(x, 1):
			posInf += w
		case math.IsInf(x, -1):
			negInf += w
		default:
			term.SetPrec(4096).SetFloat64(x)
			sum.Add(sum, term.Mul(&term, weight.SetInt64(w)))
		}
	}
	switch {
	case nan != 0 || posInf != 0 && negInf != 0:
		return math.NaN()
	case posInf != 0:
		return math.Inf(1)
	case negInf != 0:
		return math.Inf(-1)
	}
	if f, _ := sum.Float64(); f != 0 {
		return f
	}
	return 0
}
