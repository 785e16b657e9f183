package arrivals

import (
	"math"
	"testing"
)

func TestUniform(t *testing.T) {
	g := &Uniform{Rate: 3}
	for i := 0; i < 5; i++ {
		if got := g.Next(); got != 3 {
			t.Fatalf("Next = %d, want 3", got)
		}
	}
}

func TestNonUniformRespectsP(t *testing.T) {
	// With p=0 no modifications ever arrive.
	g := NewNonUniform(0, 1, 1, 1)
	for i := 0; i < 100; i++ {
		if got := g.Next(); got != 0 {
			t.Fatalf("p=0 produced %d", got)
		}
	}
	// With p=1 every step has at least one modification.
	g = NewNonUniform(1, 1, 1, 1)
	for i := 0; i < 100; i++ {
		if got := g.Next(); got < 1 {
			t.Fatalf("p=1 produced %d", got)
		}
	}
}

func TestNonUniformEmpiricalRate(t *testing.T) {
	// Paper parameters: the fraction of non-zero steps should approach p.
	for _, p := range []float64{0.5, 0.9} {
		g := NewNonUniform(p, 1, 1, 7)
		nonZero := 0
		n := 20000
		for i := 0; i < n; i++ {
			if g.Next() > 0 {
				nonZero++
			}
		}
		frac := float64(nonZero) / float64(n)
		if math.Abs(frac-p) > 0.02 {
			t.Errorf("p=%g: observed non-zero fraction %g", p, frac)
		}
	}
}

func TestNonUniformUnstableHasHigherVariance(t *testing.T) {
	stable := NewNonUniform(1, 1, 1, 3)
	unstable := NewNonUniform(1, 1, 5, 3)
	varOf := func(g Generator) float64 {
		n := 20000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := float64(g.Next())
			sum += x
			sumSq += x * x
		}
		mean := sum / float64(n)
		return sumSq/float64(n) - mean*mean
	}
	if vs, vu := varOf(stable), varOf(unstable); vu <= vs {
		t.Errorf("unstable variance %g not larger than stable %g", vu, vs)
	}
}

func TestNonUniformDeterministicBySeed(t *testing.T) {
	a := NewNonUniform(0.7, 1, 2, 99)
	b := NewNonUniform(0.7, 1, 2, 99)
	for i := 0; i < 200; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("same seed diverged at step %d: %d vs %d", i, x, y)
		}
	}
}

func TestNonUniformValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { NewNonUniform(-0.1, 1, 1, 0) },
		func() { NewNonUniform(1.1, 1, 1, 0) },
		func() { NewNonUniform(0.5, 1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid parameters accepted")
				}
			}()
			bad()
		}()
	}
}

func TestBurstyEmitsBothLevels(t *testing.T) {
	g := NewBursty(1, 10, 5, 5, 13)
	sawLow, sawHigh := false, false
	for i := 0; i < 1000; i++ {
		switch g.Next() {
		case 1:
			sawLow = true
		case 10:
			sawHigh = true
		default:
			t.Fatal("unexpected level")
		}
	}
	if !sawLow || !sawHigh {
		t.Fatalf("missing phase: low=%t high=%t", sawLow, sawHigh)
	}
}

func TestSequenceShape(t *testing.T) {
	arr := Sequence(5, &Uniform{Rate: 1}, &Uniform{Rate: 2})
	if len(arr) != 5 {
		t.Fatalf("len = %d", len(arr))
	}
	for _, d := range arr {
		if d[0] != 1 || d[1] != 2 {
			t.Fatalf("step = %v", d)
		}
	}
	if err := arr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUniformSequence(t *testing.T) {
	arr := UniformSequence(4, 1, 1)
	if arr.T() != 3 || arr.N() != 2 {
		t.Fatalf("T=%d N=%d", arr.T(), arr.N())
	}
	total := arr.TotalPerTable()
	if total[0] != 4 || total[1] != 4 {
		t.Fatalf("totals = %v", total)
	}
}
