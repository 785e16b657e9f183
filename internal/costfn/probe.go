package costfn

import (
	"fmt"
	"math"

	"abivm/internal/core"
)

// CheckMonotone verifies Cost(k) >= Cost(k-1) for all k in [1, upTo].
// It returns the first violating k, or 0 if none.
func CheckMonotone(f core.CostFunc, upTo int) int {
	prev := f.Cost(0)
	for k := 1; k <= upTo; k++ {
		cur := f.Cost(k)
		if cur < prev {
			return k
		}
		prev = cur
	}
	return 0
}

// CheckSubadditive verifies Cost(0)==0 and Cost(x+y) <= Cost(x)+Cost(y)
// for all 1 <= x <= y with x+y <= upTo, within a small relative tolerance
// for float drift. It returns the first violating (x, y), or (0, 0).
func CheckSubadditive(f core.CostFunc, upTo int) (x, y int) {
	// The CostFunc contract requires an exact zero at k=0.
	if f.Cost(0) != 0 {
		return 0, 1
	}
	costs := make([]float64, upTo+1)
	for k := 0; k <= upTo; k++ {
		costs[k] = f.Cost(k)
	}
	for a := 1; a <= upTo; a++ {
		for b := a; a+b <= upTo; b++ {
			if !core.ApproxLE(costs[a+b], costs[a]+costs[b]) {
				return a, b
			}
		}
	}
	return 0, 0
}

// CheckInvariants verifies the full CostFunc contract over [0, maxK] and
// returns a descriptive error naming the first violated property, or nil:
//
//   - Cost(0) == 0, exactly — the empty batch is free by definition;
//   - every cost is finite and non-negative;
//   - monotonicity: Cost(k) >= Cost(k-1) (Theorem 1's proofs batch
//     actions together and may not lower any batch's cost);
//   - subadditivity: Cost(x+y) <= Cost(x) + Cost(y) within float
//     tolerance (what makes batching worthwhile at all).
//
// Constructor tests call this on every cost-function implementation, and
// the view compiler (viewc) calls it before a measured function is
// trusted by the planner.
func CheckInvariants(f core.CostFunc, maxK int) error {
	if maxK < 1 {
		return fmt.Errorf("costfn: CheckInvariants needs maxK >= 1, got %d", maxK)
	}
	if z := f.Cost(0); z != 0 {
		return fmt.Errorf("costfn: Cost(0) = %g, want exactly 0", z)
	}
	for k := 1; k <= maxK; k++ {
		c := f.Cost(k)
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("costfn: Cost(%d) = %g is not finite", k, c)
		}
		if c < 0 {
			return fmt.Errorf("costfn: Cost(%d) = %g is negative", k, c)
		}
	}
	if k := CheckMonotone(f, maxK); k != 0 {
		return fmt.Errorf("costfn: not monotone at k=%d: Cost(%d)=%g < Cost(%d)=%g",
			k, k, f.Cost(k), k-1, f.Cost(k-1))
	}
	if x, y := CheckSubadditive(f, maxK); x != 0 || y != 0 {
		return fmt.Errorf("costfn: not subadditive at (%d,%d): Cost(%d)=%g > Cost(%d)+Cost(%d)=%g",
			x, y, x+y, f.Cost(x+y), x, y, f.Cost(x)+f.Cost(y))
	}
	return nil
}
