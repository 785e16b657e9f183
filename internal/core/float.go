package core

import "math"

// FloatTolerance is the relative tolerance of the Approx comparison
// helpers. Costs are accumulated float64 sums; two mathematically equal
// costs computed along different summation orders differ in the last few
// ulps, so code comparing costs (tie-breaks, degenerate-fit guards,
// budget checks against C) must compare through these helpers rather
// than with == or !=. 1e-9 matches the drift guard the subadditivity
// probe has always used.
const FloatTolerance = 1e-9

// ApproxEq reports whether a and b are equal within FloatTolerance,
// relative to their magnitude (with an absolute floor of FloatTolerance
// near zero). Infinities of equal sign compare equal; NaN compares equal
// to nothing.
func ApproxEq(a, b float64) bool {
	if a == b {
		return true // also handles equal infinities
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // unequal infinities stay apart at any tolerance
	}
	scale := 1 + math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= FloatTolerance*scale
}

// ApproxLE reports a <= b within FloatTolerance: true when a is strictly
// below b or indistinguishable from it. This is the comparison to use for
// "does this cost fit the budget C" checks.
func ApproxLE(a, b float64) bool { return a <= b || ApproxEq(a, b) }
