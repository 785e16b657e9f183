package exec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"abivm/internal/testenv"
)

// sumOp is one step of a sum's stream: add the term, or retract it.
type sumOp struct {
	x       float64
	retract bool
}

// sumTerm draws a term from where float sums go wrong: signed zeros,
// subnormals, magnitudes near 1e±300 and MaxFloat64, the infinities and
// NaN, random bit patterns, and ordinary fractions of every scale.
func sumTerm(rng *rand.Rand) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(16) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * math.Float64frombits(uint64(rng.Int63n(1<<52)))
	case 2:
		return sign * 1e300 * (1 + rng.Float64())
	case 3:
		return sign * 1e-300 * (1 + rng.Float64())
	case 4:
		return sign * math.MaxFloat64
	case 5:
		return sign * math.MaxFloat64 * (0.5 + rng.Float64()/2)
	case 6:
		if rng.Intn(3) == 0 {
			return math.NaN()
		}
		return math.Inf(int(sign))
	case 7:
		if x := math.Float64frombits(rng.Uint64()); x-x == 0 {
			return x
		}
		return sign
	default:
		return sign * rng.Float64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
}

// sumStream draws n steps: fresh terms, each followed somewhere later by
// its exact negation now and then, and retractions of terms added before.
func sumStream(rng *rand.Rand, n int) []sumOp {
	var ops []sumOp
	for len(ops) < n {
		switch r := rng.Intn(8); {
		case r == 0 && len(ops) > 0:
			ops = append(ops, sumOp{x: -ops[rng.Intn(len(ops))].x})
		case r == 1 && len(ops) > 0:
			ops = append(ops, sumOp{x: ops[rng.Intn(len(ops))].x, retract: true})
		default:
			ops = append(ops, sumOp{x: sumTerm(rng)})
		}
	}
	return ops
}

// reference is what the ops sum to: testenv.RoundedSum of them.
func reference(ops []sumOp) float64 {
	terms, weights := make([]float64, len(ops)), make([]int64, len(ops))
	for i, op := range ops {
		terms[i], weights[i] = op.x, 1
		if op.retract {
			weights[i] = -1
		}
	}
	return testenv.RoundedSum(terms, weights)
}

func (s *ExactSum) apply(ops []sumOp) {
	for _, op := range ops {
		if op.retract {
			s.Sub(op.x)
		} else {
			s.Add(op.x)
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestExactSumIsOrderFree folds random streams in random permutations
// and random chunkings — rendering between chunks, and copying the sum
// into a fresh one at some of them — and requires every render of the
// whole stream to be bit-identical to the math/big reference rounded to
// nearest-even, and every render between chunks to be the reference of
// the prefix folded so far.
func TestExactSumIsOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for stream := 0; stream < 300; stream++ {
		ops := sumStream(rng, 1+rng.Intn(40))
		want := reference(ops)
		for perm := 0; perm < 6; perm++ {
			order := make([]sumOp, len(ops))
			for i, j := range rng.Perm(len(ops)) {
				order[i] = ops[j]
			}
			var s ExactSum
			for done := 0; done < len(order); {
				next := min(len(order), done+1+rng.Intn(8))
				s.apply(order[done:next])
				done = next
				if got, want := s.Float64(), reference(order[:done]); !sameBits(got, want) {
					t.Fatalf("stream %d perm %d: %v folded renders %v (%#x), reference %v (%#x)",
						stream, perm, order[:done], got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if rng.Intn(4) == 0 {
					var c ExactSum
					c.Set(&s)
					s = ExactSum{}
					s.Set(&c)
				}
			}
			if got := s.Float64(); !sameBits(got, want) {
				t.Fatalf("stream %d perm %d: %v renders %v, reference %v", stream, perm, order, got, want)
			}
		}
	}
}

// TestExactSumCases pins the cases a naive sum gets wrong.
func TestExactSumCases(t *testing.T) {
	top := math.MaxFloat64
	for _, c := range []struct {
		name string
		ops  []sumOp
		want float64
	}{
		{"1e300 retracted beside 1", []sumOp{{x: 1e300}, {x: 1}, {x: 1e300, retract: true}}, 1},
		{"+Inf retracted", []sumOp{{x: 2}, {x: math.Inf(1)}, {x: math.Inf(1), retract: true}}, 2},
		{"NaN retracted", []sumOp{{x: math.NaN()}, {x: 3}, {x: math.NaN(), retract: true}}, 3},
		{"+Inf beside -Inf", []sumOp{{x: math.Inf(1)}, {x: math.Inf(-1)}}, math.NaN()},
		{"past MaxFloat64 and back", []sumOp{{x: top}, {x: top}, {x: -top}}, top},
		{"past -MaxFloat64 and back", []sumOp{{x: -top}, {x: -top}, {x: -top}, {x: top}, {x: top}, {x: 1}}, -top},
		{"overflow stays overflowed", []sumOp{{x: top}, {x: top}}, math.Inf(1)},
		{"rounds to MaxFloat64 below the tie", []sumOp{{x: top}, {x: 0x1p969}}, top},
		{"rounds to +Inf at the tie", []sumOp{{x: top}, {x: 0x1p970}}, math.Inf(1)},
		{"tie broken by a partial far below", []sumOp{{x: 1}, {x: 0x1p-53}, {x: 0x1p-200}}, 1 + 0x1p-52},
		{"ties to even", []sumOp{{x: 1}, {x: 0x1p-53}}, 1},
		{"negative zeros sum to +0", []sumOp{{x: math.Copysign(0, -1)}, {x: math.Copysign(0, -1)}}, 0},
		{"cancellation is +0", []sumOp{{x: -0.1}, {x: 0.1}}, 0},
		{"subnormals", []sumOp{{x: 5e-324}, {x: 5e-324}, {x: -1e-323}, {x: 5e-324}}, 5e-324},
		{"0.1 ten times", []sumOp{{x: 0.1}, {x: 0.1}, {x: 0.1}, {x: 0.1}, {x: 0.1}, {x: 0.1}, {x: 0.1}, {x: 0.1}, {x: 0.1}, {x: 0.1}}, 1},
	} {
		var s ExactSum
		s.apply(c.ops)
		if got := s.Float64(); !sameBits(got, c.want) {
			t.Errorf("%s: %v (%#x), want %v (%#x)", c.name, got, math.Float64bits(got), c.want, math.Float64bits(c.want))
		}
		if ref := reference(c.ops); !sameBits(ref, c.want) {
			t.Errorf("%s: the reference says %v, the case %v", c.name, ref, c.want)
		}
	}
}

// TestExactSumFoldAllocsNothing: a sum whose partials fit inline — here
// amounts in cents, as money is kept — folds a term and renders without
// allocating.
func TestExactSumFoldAllocsNothing(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	var s ExactSum
	x := 0.0
	if n := testing.AllocsPerRun(1000, func() {
		x += 0.37
		s.Add(float64(int(x*100)) / 100)
		s.Sub(0.01)
		_ = s.Float64()
	}); n != 0 {
		t.Fatalf("a fold and a render allocated %v times, want 0", n)
	}
	if s.spill != nil {
		t.Fatalf("cent amounts spilled past the %d inline partials", len(s.inline))
	}
}

// TestExactSumMergeAllocsNothing: a summary whose partials fit inline,
// written to words, read back and merged — added and retracted —
// allocates nothing once the words have room.
func TestExactSumMergeAllocsNothing(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	var s, summary, restored ExactSum
	for _, x := range []float64{0.37, 12.5, 0.01} {
		summary.Add(x)
	}
	words := make([]uint64, 0, summary.Words())
	if n := testing.AllocsPerRun(1000, func() {
		restored.SetWords(summary.AppendWords(words[:0]))
		s.Merge(&restored, 1)
		s.Merge(&restored, -1)
		s.Merge(&restored, 2)
		_ = s.Float64()
	}); n != 0 {
		t.Fatalf("merging a summary allocated %v times, want 0", n)
	}
	if s.spill != nil || summary.spill != nil {
		t.Fatal("the summary spilled past the inline partials")
	}
}

// FuzzExactSum decodes a stream of ops, 9 bytes each: a byte whose low
// bit asks for a retraction, then the term's bits. Folded forwards,
// backwards and in an interleaving of the two halves, every render must
// be the reference's bits. The stream's second half, summed apart,
// written to words and read back, and merged into a sum of its first
// half — added once, twice, then taken back — must render as the terms
// folded one at a time do: the half once, twice, then not at all.
func FuzzExactSum(f *testing.F) {
	enc := func(ops ...sumOp) []byte {
		var b []byte
		for _, op := range ops {
			flag := byte(0)
			if op.retract {
				flag = 1
			}
			b = binary.LittleEndian.AppendUint64(append(b, flag), math.Float64bits(op.x))
		}
		return b
	}
	top := math.MaxFloat64
	f.Add(enc(sumOp{x: 1e300}, sumOp{x: 1}, sumOp{x: 1e300, retract: true}))
	f.Add(enc(sumOp{x: top}, sumOp{x: top}, sumOp{x: -top}, sumOp{x: 0x1p970}))
	f.Add(enc(sumOp{x: math.Inf(1)}, sumOp{x: 0.1}, sumOp{x: math.Inf(1), retract: true}, sumOp{x: math.NaN()}))
	f.Add(enc(sumOp{x: 5e-324}, sumOp{x: math.Copysign(0, -1)}, sumOp{x: 1}, sumOp{x: 0x1p-53}, sumOp{x: 0x1p-1000}))
	// A summary carrying multiples of 2^1020 and non-finite counts.
	f.Add(enc(sumOp{x: 1}, sumOp{x: top}, sumOp{x: top}, sumOp{x: math.Inf(-1)}, sumOp{x: math.NaN(), retract: true}, sumOp{x: top}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []sumOp
		for ; len(data) >= 9; data = data[9:] {
			ops = append(ops, sumOp{x: math.Float64frombits(binary.LittleEndian.Uint64(data[1:])), retract: data[0]&1 == 1})
		}
		want := reference(ops)
		backwards := make([]sumOp, 0, len(ops))
		for i := len(ops) - 1; i >= 0; i-- {
			backwards = append(backwards, ops[i])
		}
		half := len(ops) / 2
		var interleaved []sumOp
		for i := 0; i < half || half+i < len(ops); i++ {
			if half+i < len(ops) {
				interleaved = append(interleaved, ops[half+i])
			}
			if i < half {
				interleaved = append(interleaved, ops[i])
			}
		}
		for _, order := range [][]sumOp{ops, backwards, interleaved} {
			var s ExactSum
			s.apply(order)
			if got := s.Float64(); !sameBits(got, want) {
				t.Fatalf("%v renders %v (%#x), reference %v (%#x)", order, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		var s, summed, summary ExactSum
		s.apply(ops[:half])
		summed.apply(ops[half:])
		words := summed.AppendWords(nil)
		if len(words) != summed.Words() {
			t.Fatalf("%v written to %d words, Words says %d", ops[half:], len(words), summed.Words())
		}
		if rest := summary.SetWords(words); len(rest) != 0 || !sameBits(summary.Float64(), summed.Float64()) {
			t.Fatalf("%v read back from its words renders %v, %d words left; was %v", ops[half:], summary.Float64(), len(rest), summed.Float64())
		}
		twice := append(slices.Clone(ops), ops[half:]...)
		for _, step := range []struct {
			w    int64
			want float64
		}{{1, want}, {1, reference(twice)}, {-2, reference(ops[:half])}} {
			s.Merge(&summary, step.w)
			if got := s.Float64(); !sameBits(got, step.want) {
				t.Fatalf("%v merged %+d times into %v renders %v (%#x), its terms one at a time %v (%#x)",
					ops[half:], step.w, ops[:half], got, math.Float64bits(got), step.want, math.Float64bits(step.want))
			}
		}
	})
}
