package abivm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"abivm/internal/core"
	"abivm/internal/costfn"
	"abivm/internal/policy"
	"abivm/internal/storage"
	"abivm/internal/tpcr"
)

func testModel(t *testing.T) *core.CostModel {
	t.Helper()
	mk := func(a, b float64) core.CostFunc {
		f, err := costfn.NewLinear(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// Four tables: PS, S, N, R — matching the paper view's FROM order.
	// The PS/S shapes follow the paper's Example 1: PS is nearly flat
	// (large setup, tiny slope — batch it), S is steep with no setup
	// (drain it eagerly, batching buys nothing).
	return core.NewCostModel(mk(0.01, 8), mk(1.0, 0.05), mk(0.1, 0.1), mk(0.1, 0.1))
}

func testDB(t *testing.T) *storage.DB {
	t.Helper()
	db := storage.NewDB()
	cfg := tpcr.Config{ScaleFactor: 0.002, Seed: 1, SupplierSuppkeyIndex: true}
	if err := tpcr.Generate(db, cfg); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestNewViewRequiresConstraint(t *testing.T) {
	_, err := NewView(testDB(t), tpcr.PaperView)
	if err == nil || !strings.Contains(err.Error(), "WithConstraint") {
		t.Fatalf("err = %v", err)
	}
}

func TestNewViewChecksModelArity(t *testing.T) {
	bad := core.NewCostModel(mustLin(t, 1, 1))
	_, err := NewView(testDB(t), tpcr.PaperView, WithConstraint(bad, 10))
	if err == nil || !strings.Contains(err.Error(), "model covers") {
		t.Fatalf("err = %v", err)
	}
}

func mustLin(t *testing.T, a, b float64) core.CostFunc {
	t.Helper()
	f, err := costfn.NewLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewViewRejectsUnknownPolicy(t *testing.T) {
	_, err := NewView(testDB(t), tpcr.PaperView, WithConstraint(testModel(t), 20), WithPolicy("bogus"))
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("err = %v", err)
	}
}

func TestViewLifecycle(t *testing.T) {
	db := testDB(t)
	model := testModel(t)
	c := 20.0
	v, err := NewView(db, tpcr.PaperView, WithConstraint(model, c), WithPolicy(PolicyOnlineMarginal))
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Aliases(); len(got) != 4 || got[0] != "PS" {
		t.Fatalf("aliases = %v", got)
	}
	gen := tpcr.NewUpdateGen(db, tpcr.Config{ScaleFactor: 0.002, Seed: 1}, 9)
	for step := 0; step < 300; step++ {
		if err := v.Apply(gen.PartSuppUpdate()); err != nil {
			t.Fatal(err)
		}
		if err := v.Apply(gen.SupplierUpdate()); err != nil {
			t.Fatal(err)
		}
		if _, _, err := v.EndStep(); err != nil {
			t.Fatal(err)
		}
		// The QoS invariant: refresh cost never exceeds C between steps.
		if rc := v.RefreshCost(); rc > c {
			t.Fatalf("step %d: refresh cost %g > C %g", step, rc, c)
		}
	}
	if v.TotalCost() <= 0 {
		t.Fatal("no maintenance cost accumulated despite forced actions")
	}
	rows, cost, err := v.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if cost > c {
		t.Fatalf("refresh cost %g > C %g", cost, c)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if !v.Pending().IsZero() {
		t.Fatalf("pending after refresh = %v", v.Pending())
	}
	// The refreshed content is the query over the live tables now.
	fresh, err := NewView(db, tpcr.PaperView, WithConstraint(model, c))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(rows), fmt.Sprint(fresh.Result()); got != want {
		t.Fatalf("refreshed rows %s, fresh view %s", got, want)
	}
}

func TestNewViewRejectsBadConstraint(t *testing.T) {
	for _, c := range []float64{math.NaN(), -1} {
		if _, err := NewView(testDB(t), tpcr.PaperView, WithConstraint(testModel(t), c)); err == nil {
			t.Errorf("NewView accepted C = %v", c)
		}
	}
}

// shortPolicy answers every step with a one-table action, whatever the
// view's arity.
type shortPolicy struct{}

func (shortPolicy) Name() string                                        { return "SHORT" }
func (shortPolicy) Reset(int)                                           {}
func (shortPolicy) Act(int, core.Vector, core.Vector, bool) core.Vector { return core.NewVector(1) }

func TestViewShortPolicyActionIsAnError(t *testing.T) {
	db := testDB(t)
	v, err := NewView(db, tpcr.PaperView, WithConstraint(testModel(t), 20), WithCustomPolicy(shortPolicy{}))
	if err != nil {
		t.Fatal(err)
	}
	gen := tpcr.NewUpdateGen(db, tpcr.Config{ScaleFactor: 0.002, Seed: 1}, 9)
	if err := v.Apply(gen.PartSuppUpdate()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.EndStep(); err == nil || !strings.Contains(err.Error(), "out-of-range action") {
		t.Fatalf("EndStep with a short action: err = %v", err)
	}
}

func TestViewNaiveVsOnlineCostOrdering(t *testing.T) {
	run := func(kind PolicyKind) float64 {
		db := testDB(t)
		v, err := NewView(db, tpcr.PaperView, WithConstraint(testModel(t), 20), WithPolicy(kind))
		if err != nil {
			t.Fatal(err)
		}
		gen := tpcr.NewUpdateGen(db, tpcr.Config{ScaleFactor: 0.002, Seed: 1}, 9)
		for step := 0; step < 400; step++ {
			if err := v.Apply(gen.PartSuppUpdate()); err != nil {
				t.Fatal(err)
			}
			if err := v.Apply(gen.SupplierUpdate()); err != nil {
				t.Fatal(err)
			}
			if _, _, err := v.EndStep(); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := v.Refresh(); err != nil {
			t.Fatal(err)
		}
		return v.TotalCost()
	}
	naive := run(PolicyNaive)
	onlineM := run(PolicyOnlineMarginal)
	if onlineM >= naive {
		t.Fatalf("ONLINE-M (%g) did not beat NAIVE (%g)", onlineM, naive)
	}
}

func TestViewResultMatchesEngineAfterRefresh(t *testing.T) {
	db := testDB(t)
	v, err := NewView(db, tpcr.PaperView, WithConstraint(testModel(t), 20))
	if err != nil {
		t.Fatal(err)
	}
	gen := tpcr.NewUpdateGen(db, tpcr.Config{ScaleFactor: 0.002, Seed: 1}, 11)
	for i := 0; i < 30; i++ {
		if err := v.Apply(gen.PartSuppUpdate(), gen.SupplierUpdate()); err != nil {
			t.Fatal(err)
		}
	}
	rows, _, err := v.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	stale := v.Result()
	if len(rows) != 1 || len(stale) != 1 || !storage.Equal(rows[0][0], stale[0][0]) {
		t.Fatalf("Refresh %v vs Result %v", rows, stale)
	}
}

// TestViewRowsAreTheCallers: editing a row Refresh or Result returned
// leaves the view as it was. The edited row's delete then drains as
// any other, and the content equals a recompute over the live table.
func TestViewRowsAreTheCallers(t *testing.T) {
	db := storage.NewDB()
	schema, err := storage.NewSchema("items", []storage.Column{
		{Name: "k", Type: storage.TInt},
		{Name: "v", Type: storage.TFloat},
	}, "k")
	if err != nil {
		t.Fatal(err)
	}
	items, err := db.CreateTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 4; k++ {
		if err := items.Insert(storage.Row{storage.I(k), storage.F(float64(k))}); err != nil {
			t.Fatal(err)
		}
	}
	const query = "SELECT i.k, i.v FROM items AS i"
	model := core.NewCostModel(mustLin(t, 1, 1))
	v, err := NewView(db, query, WithConstraint(model, 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Apply(InsertRow("i", storage.Row{storage.I(5000), storage.F(7)})); err != nil {
		t.Fatal(err)
	}
	rows, _, err := v.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	edit := func(rows []storage.Row) {
		t.Helper()
		for _, r := range rows {
			if storage.Equal(r[0], storage.I(5000)) {
				r[1] = storage.F(999)
				return
			}
		}
		t.Fatalf("rows %v lack key 5000", rows)
	}
	edit(rows)
	edit(v.Result())
	if err := v.Apply(DeleteRow("i", storage.I(5000))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.EndStep(); err != nil {
		t.Fatal(err)
	}
	rows, _, err = v.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewView(db, query, WithConstraint(model, 100))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(rows), fmt.Sprint(fresh.Result()); got != want {
		t.Fatalf("content after the delete %s, recomputed %s", got, want)
	}
}

func TestViewWithCustomPolicy(t *testing.T) {
	db := testDB(t)
	model := testModel(t)
	c := 20.0
	custom := policy.NewPeriodic(model, c, 25)
	v, err := NewView(db, tpcr.PaperView, WithConstraint(model, c), WithCustomPolicy(custom))
	if err != nil {
		t.Fatal(err)
	}
	gen := tpcr.NewUpdateGen(db, tpcr.Config{ScaleFactor: 0.002, Seed: 1}, 13)
	flushSteps := 0
	for step := 0; step < 60; step++ {
		if err := v.Apply(gen.PartSuppUpdate()); err != nil {
			t.Fatal(err)
		}
		act, _, err := v.EndStep()
		if err != nil {
			t.Fatal(err)
		}
		if !act.IsZero() {
			flushSteps++
		}
	}
	// Periodic(25) flushes at steps 24 and 49.
	if flushSteps != 2 {
		t.Fatalf("custom periodic policy flushed %d times, want 2", flushSteps)
	}
}

func TestModConstructors(t *testing.T) {
	ins := InsertRow("PS", storage.Row{storage.I(1)})
	if ins.Alias != "PS" || ins.Kind.String() != "INSERT" {
		t.Fatalf("insert = %+v", ins)
	}
	del := DeleteRow("S", storage.I(2))
	if del.Kind.String() != "DELETE" || len(del.Key) != 1 {
		t.Fatalf("delete = %+v", del)
	}
	upd := UpdateRow("S", []storage.Value{storage.I(2)}, storage.Row{storage.I(2)})
	if upd.Kind.String() != "UPDATE" {
		t.Fatalf("update = %+v", upd)
	}
}
