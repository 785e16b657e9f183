package exec

import (
	"math"
	"math/big"
)

// ExactSum is a float64 sum kept exact, so its value does not depend on
// the order the terms arrive in and a retraction cancels its term
// exactly. It holds the sum of the finite terms as Shewchuk's
// non-overlapping partials (J. R. Shewchuk, "Adaptive Precision
// Floating-Point Arithmetic and Fast Robust Geometric Predicates", 1997;
// the algorithm behind Python's math.fsum): floats of increasing
// magnitude, no two sharing a bit position, whose exact sum is the sum.
// What a float64 cannot hold is carried beside them — whole multiples of
// 2^1020 in an integer, so a running total may pass ±MaxFloat64 and come
// back — and ±Inf and NaN terms are counted aside, so retracting one
// restores the finite sum. Float64 renders the exact sum correctly
// rounded. The zero value is the empty sum; a sum whose partials fit in
// the inline array allocates nothing to fold a term.
type ExactSum struct {
	n      int // partials in use
	inline [4]float64
	spill  []float64 // the partials once more than the inline array hold; nil before
	carry  int64     // multiples of 2^1020 moved out of the partials
	posInf int64
	negInf int64
	nan    int64
}

// carryUnit is the part of the sum the integer carry holds units of. The
// partials stay below it in magnitude, so adding a term below it to them
// never overflows.
const carryUnit = 0x1p1020

// bigPrec is enough mantissa for the exact sum of the partials and the
// carry: bits from 2^-1074 up to the carry's 2^(1020+63), and headroom.
const bigPrec = 2240

// Add folds x into the sum.
func (s *ExactSum) Add(x float64) { s.fold(x, 1) }

// Sub retracts x: the sum afterwards is what it would be had x never
// been added.
func (s *ExactSum) Sub(x float64) { s.fold(-x, -1) }

// fold adds the finite term x, or counts a non-finite one with the sign
// dir: +1 for a term added, -1 for one retracted (x is then negated, so
// a retracted +Inf arrives as -Inf).
func (s *ExactSum) fold(x float64, dir int64) {
	switch {
	case x-x == 0: // finite
	case math.IsNaN(x):
		s.nan += dir
		return
	case (x > 0) == (dir > 0):
		s.posInf += dir
		return
	default:
		s.negInf += dir
		return
	}
	if x == 0 {
		return
	}
	if math.Abs(x) >= carryUnit {
		x = s.carryOut(x)
	}
	p := s.partials()
	i := 0
	for _, y := range p {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		if lo := y - (hi - x); lo != 0 {
			p[i] = lo
			i++
		}
		x = hi
	}
	s.n = i
	if s.spill != nil {
		s.spill = s.spill[:i]
	}
	if math.Abs(x) >= carryUnit {
		x = s.carryOut(x)
	}
	if x != 0 {
		s.push(x)
	}
}

// carryOut moves the whole multiples of 2^1020 in x to the carry and
// returns the rest, which keeps x's sign and its lower bits: exact, and
// below 2^1020 in magnitude.
func (s *ExactSum) carryOut(x float64) float64 {
	k := math.Trunc(x / carryUnit)
	s.carry += int64(k)
	return x - k*carryUnit
}

func (s *ExactSum) partials() []float64 {
	if s.spill != nil {
		return s.spill
	}
	return s.inline[:s.n]
}

// push appends a partial above all the others.
func (s *ExactSum) push(x float64) {
	switch {
	case s.spill != nil:
		s.spill = append(s.spill, x)
	case s.n < len(s.inline):
		s.inline[s.n] = x
	default:
		s.spill = make([]float64, s.n, 2*len(s.inline))
		copy(s.spill, s.inline[:])
		s.spill = append(s.spill, x)
	}
	s.n++
}

// Merge folds w copies of the sum t into s: w > 0 adds every term t
// holds w times, w < 0 retracts each -w times, exactly as folding the
// terms one at a time would. t's partials, carry and non-finite counts
// are its terms' exact sum, so they are folded in their stead.
func (s *ExactSum) Merge(t *ExactSum, w int64) {
	dir := int64(1)
	if w < 0 {
		dir = -1
	}
	for n := w; n != 0; n -= dir {
		for _, x := range t.partials() {
			s.fold(float64(dir)*x, dir)
		}
	}
	s.carry += w * t.carry
	s.posInf += w * t.posInf
	s.negInf += w * t.negInf
	s.nan += w * t.nan
}

// AppendWords appends the sum's exact state to dst as words — the
// partials' count, the carry, the +Inf, -Inf and NaN counts, then the
// partials' bits — for SetWords to restore bit for bit. It takes
// Words(s) words.
func (s *ExactSum) AppendWords(dst []uint64) []uint64 {
	p := s.partials()
	dst = append(dst, uint64(len(p)), uint64(s.carry), uint64(s.posInf), uint64(s.negInf), uint64(s.nan))
	for _, x := range p {
		dst = append(dst, math.Float64bits(x))
	}
	return dst
}

// Words is how many words AppendWords writes for the sum.
func (s *ExactSum) Words() int { return 5 + s.n }

// SetWords makes s the sum whose words AppendWords wrote at the front of
// w, reusing the memory s spilled to, and returns the rest of w.
func (s *ExactSum) SetWords(w []uint64) []uint64 {
	n := int(w[0])
	spill := s.spill[:0]
	*s = ExactSum{carry: int64(w[1]), posInf: int64(w[2]), negInf: int64(w[3]), nan: int64(w[4])}
	if n > len(s.inline) {
		s.spill = spill
	}
	for _, bits := range w[5 : 5+n] {
		s.push(math.Float64frombits(bits))
	}
	return w[5+n:]
}

// Set makes s a copy of t that shares no memory with it.
func (s *ExactSum) Set(t *ExactSum) {
	spill := s.spill[:0]
	*s = *t
	if t.spill != nil {
		s.spill = append(spill, t.spill...)
	}
}

// Float64 returns the sum correctly rounded to the nearest float64, ties
// to even: NaN if a NaN term is held or +Inf and -Inf both are, else
// ±Inf if one of them is, else the rounded finite sum. A zero sum is +0
// whatever the terms were.
func (s *ExactSum) Float64() float64 {
	switch {
	case s.nan != 0 || s.posInf != 0 && s.negInf != 0:
		return math.NaN()
	case s.posInf != 0:
		return math.Inf(1)
	case s.negInf != 0:
		return math.Inf(-1)
	case s.carry != 0:
		return s.bigFloat64()
	}
	// Add the partials from the top down until a step is inexact; what is
	// left below can then only break a tie. This is math.fsum's rounding:
	// the partials are below 2^1020, so nothing here overflows.
	p := s.partials()
	n := len(p)
	if n == 0 {
		return 0
	}
	n--
	hi, lo := p[n], 0.0
	for n > 0 {
		n--
		x, y := hi, p[n]
		hi = x + y
		if lo = y - (hi - x); lo != 0 {
			break
		}
	}
	// hi+lo is exact. If lo is half an ulp of hi and the partials below
	// push the same way, the sum is past the tie: round away from hi.
	if n > 0 && (lo < 0 && p[n-1] < 0 || lo > 0 && p[n-1] > 0) {
		y := 2 * lo
		if x := hi + y; x-hi == y {
			hi = x
		}
	}
	return hi
}

// bigFloat64 rounds the sum with its carry through math/big: only a sum
// that a term or a running total of 2^1020 or more has passed through,
// leaving a carry, gets here.
func (s *ExactSum) bigFloat64() float64 {
	var t, u big.Float
	t.SetPrec(bigPrec).SetInt64(s.carry)
	t.SetMantExp(&t, 1020)
	for _, x := range s.partials() {
		t.Add(&t, u.SetFloat64(x))
	}
	if f, _ := t.Float64(); f != 0 {
		return f
	}
	return 0
}
