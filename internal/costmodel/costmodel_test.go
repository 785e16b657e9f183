package costmodel

import (
	"math"
	"strings"
	"testing"

	"abivm/internal/costfn"
	"abivm/internal/ivm"
	"abivm/internal/pubsub"
	"abivm/internal/storage"
	"abivm/internal/tpcr"
)

func setup(t *testing.T) (*pubsub.Probe, *tpcr.UpdateGen) {
	t.Helper()
	cfg := tpcr.DefaultConfig()
	cfg.ScaleFactor = 0.002
	db := storage.NewDB()
	if err := tpcr.Generate(db, cfg); err != nil {
		t.Fatal(err)
	}
	p, err := pubsub.NewProbe(db, tpcr.PaperView)
	if err != nil {
		t.Fatal(err)
	}
	return p, tpcr.NewUpdateGen(db, cfg, 3)
}

func TestMeasureProducesIncreasingCosts(t *testing.T) {
	m, gen := setup(t)
	ks := []int{1, 5, 10, 20, 40}
	ms, err := Measure(m, "PS", gen.PartSuppUpdate, ks, storage.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.K) != len(ks) {
		t.Fatalf("samples = %d", len(ms.K))
	}
	for i, c := range ms.Cost {
		if c <= 0 {
			t.Fatalf("sample %d: non-positive cost %g", i, c)
		}
	}
	// Costs grow overall (allowing local noise from MIN multiset work).
	if ms.Cost[len(ms.Cost)-1] <= ms.Cost[0] {
		t.Fatalf("cost at k=40 (%g) not above cost at k=1 (%g)", ms.Cost[len(ms.Cost)-1], ms.Cost[0])
	}
}

func TestMeasureSupplierCostsDominatePartSupp(t *testing.T) {
	// The paper's Figure 4 asymmetry: Supplier batches cost more than
	// PartSupp batches of the same size (no index on partsupp.suppkey).
	m, gen := setup(t)
	ks := []int{1, 5, 10, 20}
	w := storage.DefaultWeights()
	ps, err := Measure(m, "PS", gen.PartSuppUpdate, ks, w)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Measure(m, "S", gen.SupplierUpdate, ks, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ks {
		if s.Cost[i] <= ps.Cost[i] {
			t.Fatalf("k=%d: supplier cost %g not above partsupp cost %g", ks[i], s.Cost[i], ps.Cost[i])
		}
	}
}

func TestMeasureValidation(t *testing.T) {
	m, gen := setup(t)
	w := storage.DefaultWeights()
	if _, err := Measure(m, "PS", gen.PartSuppUpdate, []int{0}, w); err == nil {
		t.Fatal("zero batch size accepted")
	}
	// Regression: duplicate sample sizes used to be measured twice against
	// drifted state and fold into one fitted point; now rejected up front.
	if _, err := Measure(m, "PS", gen.PartSuppUpdate, []int{1, 5, 5, 10}, w); err == nil || !strings.Contains(err.Error(), "strictly increasing") {
		t.Fatalf("duplicate batch sizes: err = %v", err)
	}
	if _, err := Measure(m, "PS", gen.PartSuppUpdate, []int{10, 5}, w); err == nil || !strings.Contains(err.Error(), "strictly increasing") {
		t.Fatalf("unsorted batch sizes: err = %v", err)
	}
	// Validation happens before any modification is applied: the queue is
	// untouched after a rejected call.
	if got := m.Pending(); got[0] != 0 || got[1] != 0 {
		t.Fatalf("rejected Measure mutated the maintainer: pending %v", got)
	}
}

func TestFitLinearRecoversExactLine(t *testing.T) {
	ms := &Measurement{K: []int{1, 2, 3, 4}, Cost: []float64{5, 7, 9, 11}} // 2k+3
	lin, err := ms.FitLinear()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lin.A-2) > 1e-9 || math.Abs(lin.B-3) > 1e-9 {
		t.Fatalf("fit = (%g, %g), want (2, 3)", lin.A, lin.B)
	}
}

func TestFitLinearClampsDegenerateSlope(t *testing.T) {
	ms := &Measurement{K: []int{1, 2, 3}, Cost: []float64{5, 5, 5}}
	lin, err := ms.FitLinear()
	if err != nil {
		t.Fatal(err)
	}
	if lin.A <= 0 {
		t.Fatalf("slope %g not clamped positive", lin.A)
	}
	if _, err := (&Measurement{K: []int{1}, Cost: []float64{1}}).FitLinear(); err == nil {
		t.Fatal("single sample accepted")
	}
}

func TestPiecewiseReproducesSamples(t *testing.T) {
	ms := &Measurement{K: []int{2, 4, 8}, Cost: []float64{3, 4, 9}}
	f, err := ms.Piecewise()
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ms.K {
		if got := f.Cost(k); math.Abs(got-ms.Cost[i]) > 1e-9 {
			t.Fatalf("Cost(%d) = %g, want %g", k, got, ms.Cost[i])
		}
	}
	// Non-monotone samples clamp upward.
	ms2 := &Measurement{K: []int{1, 2, 3}, Cost: []float64{5, 4, 6}}
	f2, err := ms2.Piecewise()
	if err != nil {
		t.Fatal(err)
	}
	if got := f2.Cost(2); got != 5 {
		t.Fatalf("clamped Cost(2) = %g, want 5", got)
	}
}

func TestModelAssembly(t *testing.T) {
	a := &Measurement{K: []int{1, 2}, Cost: []float64{2, 3}}
	b := &Measurement{K: []int{1, 2}, Cost: []float64{5, 9}}
	model, err := Model("linear", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if model.N() != 2 {
		t.Fatalf("N = %d", model.N())
	}
	if _, err := Model("spline", a); err == nil {
		t.Fatal("unknown fit accepted")
	}
	pw, err := Model("piecewise", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if pw.TableCost(0, 2) != 3 {
		t.Fatalf("piecewise model Cost = %g", pw.TableCost(0, 2))
	}
	if pw.TableCost(1, 2) != 9 {
		t.Fatalf("piecewise model Cost = %g", pw.TableCost(1, 2))
	}
}

func TestFittedFunctionsAreWellFormed(t *testing.T) {
	m, gen := setup(t)
	ks := []int{1, 5, 10, 20, 40}
	w := storage.DefaultWeights()
	for alias, g := range map[string]func() ivm.Mod{"PS": gen.PartSuppUpdate, "S": gen.SupplierUpdate} {
		ms, err := Measure(m, alias, g, ks, w)
		if err != nil {
			t.Fatal(err)
		}
		lin, err := ms.FitLinear()
		if err != nil {
			t.Fatal(err)
		}
		if costfn.CheckInvariants(lin, 200) != nil {
			t.Errorf("%s: fitted linear function not monotone subadditive", alias)
		}
		pw, err := ms.Piecewise()
		if err != nil {
			t.Fatal(err)
		}
		if k := costfn.CheckMonotone(pw, 200); k != 0 {
			t.Errorf("%s: piecewise fit not monotone at %d", alias, k)
		}
	}
}
