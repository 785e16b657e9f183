package costfn

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"abivm/internal/core"
)

func TestLinearCost(t *testing.T) {
	f, err := NewLinear(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Cost(0); got != 0 {
		t.Errorf("Cost(0) = %g", got)
	}
	if got := f.Cost(1); got != 5 {
		t.Errorf("Cost(1) = %g", got)
	}
	if got := f.Cost(10); got != 23 {
		t.Errorf("Cost(10) = %g", got)
	}
	if err := CheckInvariants(f, 200); err != nil {
		t.Error(err)
	}
}

func TestNewLinearValidation(t *testing.T) {
	if _, err := NewLinear(0, 1); err == nil {
		t.Error("zero slope accepted")
	}
	if _, err := NewLinear(-1, 1); err == nil {
		t.Error("negative slope accepted")
	}
	if _, err := NewLinear(1, -1); err == nil {
		t.Error("negative intercept accepted")
	}
}

func TestLinearMaxBatch(t *testing.T) {
	f, _ := NewLinear(2, 3)
	cases := []struct {
		budget float64
		want   int
	}{
		{0, 0}, {4.99, 0}, {5, 1}, {7, 2}, {23, 10}, {23.9, 10},
	}
	for _, c := range cases {
		if got := f.MaxBatch(c.budget); got != c.want {
			t.Errorf("MaxBatch(%g) = %d, want %d", c.budget, got, c.want)
		}
	}
}

func TestLinearMaxBatchAgreesWithModelFallback(t *testing.T) {
	// Property: the closed form equals the generic search on a wrapper
	// that hides the MaxBatcher interface.
	f, _ := NewLinear(0.37, 1.21)
	hidden := core.NewCostModel(hideMaxBatch{f})
	direct := core.NewCostModel(f)
	for budget := 0.0; budget < 50; budget += 0.73 {
		want := direct.MaxBatch(0, budget)
		got := hidden.MaxBatch(0, budget)
		if got != want {
			t.Fatalf("budget %g: fallback %d != closed form %d", budget, got, want)
		}
	}
}

// hideMaxBatch wraps a cost function, hiding any MaxBatcher implementation.
type hideMaxBatch struct{ inner core.CostFunc }

func (h hideMaxBatch) Cost(k int) float64 { return h.inner.Cost(k) }

func TestStepCost(t *testing.T) {
	f, err := NewStep(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		k    int
		want float64
	}{
		{0, 0}, {1, 4}, {10, 4}, {11, 8}, {20, 8}, {21, 12},
	}
	for _, c := range cases {
		if got := f.Cost(c.k); got != c.want {
			t.Errorf("Cost(%d) = %g, want %g", c.k, got, c.want)
		}
	}
	if err := CheckInvariants(f, 200); err != nil {
		t.Error(err)
	}
}

func TestStepMaxBatch(t *testing.T) {
	f, _ := NewStep(10, 4)
	if got := f.MaxBatch(8); got != 20 {
		t.Errorf("MaxBatch(8) = %d, want 20", got)
	}
	if got := f.MaxBatch(3); got != 0 {
		t.Errorf("MaxBatch(3) = %d, want 0", got)
	}
}

func TestNewStepValidation(t *testing.T) {
	if _, err := NewStep(0, 1); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := NewStep(1, 0); err == nil {
		t.Error("zero block cost accepted")
	}
}

func TestPowerAndLog(t *testing.T) {
	p, err := NewPower(2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Cost(4); math.Abs(got-5) > 1e-12 {
		t.Errorf("Power.Cost(4) = %g, want 5", got)
	}
	if got := p.Cost(0); got != 0 {
		t.Errorf("Power.Cost(0) = %g", got)
	}
	l, err := NewLog(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Cost(1); math.Abs(got-5) > 1e-12 { // 3*log2(2)+2
		t.Errorf("Log.Cost(1) = %g, want 5", got)
	}
	if err := CheckInvariants(p, 200); err != nil {
		t.Errorf("power: %v", err)
	}
	if err := CheckInvariants(l, 200); err != nil {
		t.Errorf("log: %v", err)
	}
}

func TestNewPowerValidation(t *testing.T) {
	if _, err := NewPower(1, 0, 0); err == nil {
		t.Error("exponent 0 accepted")
	}
	if _, err := NewPower(1, 1.5, 0); err == nil {
		t.Error("exponent > 1 accepted")
	}
	if _, err := NewPower(0, 0.5, 0); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := NewPower(1, 0.5, -1); err == nil {
		t.Error("negative setup accepted")
	}
}

func TestPiecewiseLinear(t *testing.T) {
	f, err := NewPiecewiseLinear([]Knot{{0, 0}, {10, 5}, {20, 8}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		k    int
		want float64
	}{
		{0, 0}, {10, 5}, {20, 8}, {5, 2.5}, {15, 6.5},
		{30, 11}, // extrapolation with last slope 0.3
	}
	for _, c := range cases {
		if got := f.Cost(c.k); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Cost(%d) = %g, want %g", c.k, got, c.want)
		}
	}
	if err := CheckInvariants(f, 200); err != nil {
		t.Error(err)
	}
}

func TestNewPiecewiseLinearValidation(t *testing.T) {
	if _, err := NewPiecewiseLinear([]Knot{{0, 0}}); err == nil {
		t.Error("single knot accepted")
	}
	if _, err := NewPiecewiseLinear([]Knot{{1, 1}, {2, 2}}); err == nil {
		t.Error("missing origin accepted")
	}
	if _, err := NewPiecewiseLinear([]Knot{{0, 0}, {5, 3}, {5, 4}}); err == nil {
		t.Error("non-increasing k accepted")
	}
	if _, err := NewPiecewiseLinear([]Knot{{0, 0}, {5, 3}, {6, 2}}); err == nil {
		t.Error("decreasing cost accepted")
	}
}

func TestCapped(t *testing.T) {
	lin, _ := NewLinear(1, 0)
	f, err := NewCapped(lin, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Cost(0); got != 0 {
		t.Errorf("Cost(0) = %g", got)
	}
	if got := f.Cost(5); got != 5 {
		t.Errorf("Cost(5) = %g", got)
	}
	if got := f.Cost(50); got != 10 {
		t.Errorf("Cost(50) = %g, want capped 10", got)
	}
	if err := CheckInvariants(f, 200); err != nil {
		t.Errorf("capped linear: %v", err)
	}
	// A capped step function stays well-formed too.
	step, _ := NewStep(3, 2)
	cs, err := NewCapped(step, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckInvariants(cs, 200); err != nil {
		t.Errorf("capped step: %v", err)
	}
}

func TestNewCappedValidation(t *testing.T) {
	lin, _ := NewLinear(1, 0)
	if _, err := NewCapped(nil, 5); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewCapped(lin, 0); err == nil {
		t.Error("zero cap accepted")
	}
}

func TestStandardFunctionsAreWellFormed(t *testing.T) {
	lin, _ := NewLinear(0.7, 2.1)
	step, _ := NewStep(7, 3)
	pow, _ := NewPower(2, 0.6, 1)
	lg, _ := NewLog(1.5, 0.5)
	pw, _ := NewPiecewiseLinear([]Knot{{0, 0}, {5, 10}, {50, 40}})
	funcs := map[string]core.CostFunc{
		"linear": lin, "step": step, "power": pow, "log": lg,
		"piecewise": pw,
	}
	for name, f := range funcs {
		if err := CheckInvariants(f, 300); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCheckInvariantsReportsViolations(t *testing.T) {
	cases := []struct {
		name string
		f    core.CostFunc
		maxK int
		want string
	}{
		{"bad maxK", quadratic{}, 0, "maxK >= 1"},
		{"nonzero origin", offsetCost{}, 10, "Cost(0)"},
		{"not finite", nanCost{}, 10, "not finite"},
		{"negative", negCost{}, 10, "negative"},
		{"not monotone", vShape{}, 10, "not monotone"},
		{"superadditive", quadratic{}, 10, "not subadditive"},
	}
	for _, c := range cases {
		err := CheckInvariants(c.f, c.maxK)
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

type offsetCost struct{}

func (offsetCost) Cost(k int) float64 { return float64(k) + 1 }

type nanCost struct{}

func (nanCost) Cost(k int) float64 {
	if k == 3 {
		return math.NaN()
	}
	return float64(k)
}

type negCost struct{}

func (negCost) Cost(k int) float64 {
	if k == 0 {
		return 0
	}
	return -1
}

func TestLinearSubadditivityProperty(t *testing.T) {
	// Property: random positive (a, b) always yield monotone subadditive
	// linear functions.
	f := func(a, b uint8) bool {
		lin, err := NewLinear(float64(a)/16+0.01, float64(b)/16)
		if err != nil {
			return false
		}
		return CheckInvariants(lin, 64) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSubadditiveCatchesSuperadditive(t *testing.T) {
	// Quadratic cost is superadditive: Cost(2) = 4 > 2*Cost(1).
	x, y := CheckSubadditive(quadratic{}, 10)
	if x == 0 {
		t.Fatal("superadditive function passed the probe")
	}
	_ = y
}

type quadratic struct{}

func (quadratic) Cost(k int) float64 { return float64(k * k) }

func TestCheckMonotoneCatchesDecreasing(t *testing.T) {
	if k := CheckMonotone(vShape{}, 10); k == 0 {
		t.Fatal("decreasing function passed the probe")
	}
}

type vShape struct{}

func (vShape) Cost(k int) float64 {
	if k == 0 {
		return 0
	}
	return math.Abs(float64(k - 5))
}
