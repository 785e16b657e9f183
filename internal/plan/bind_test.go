package plan

import (
	"fmt"
	"math"
	"testing"

	"abivm/internal/exec"
	"abivm/internal/sql"
	"abivm/internal/storage"
	"abivm/internal/testenv"
)

var comparisonOps = []string{"=", "<>", "<", "<=", ">", ">="}

// opHolds is the reference meaning of a comparison operator over a
// storage.Compare result, spelled out apart from the bound mask.
func opHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	}
	return c >= 0
}

// comparisonValues is every kind a column or a literal can hold, with the
// edges of each: NaN, both zeros, the infinities, an integer equal to a
// float, integers beyond a float's exact range.
var comparisonValues = []storage.Value{
	storage.I(-3), storage.I(0), storage.I(1), storage.I(2), storage.I(math.MaxInt64), storage.I(math.MaxInt64 - 1),
	storage.F(math.NaN()), storage.F(math.Copysign(0, -1)), storage.F(0), storage.F(1), storage.F(1.5),
	storage.F(math.Inf(-1)), storage.F(math.Inf(1)), storage.F(float64(math.MaxInt64)),
	storage.S(""), storage.S("R00"), storage.S("R01"), storage.S("a"),
}

// literalOf is the SQL literal of a value.
func literalOf(v storage.Value) sql.Expr {
	switch v.T {
	case storage.TInt:
		return &sql.IntLit{V: v.Int()}
	case storage.TFloat:
		return &sql.FloatLit{V: v.Float()}
	}
	return &sql.StringLit{V: v.Str()}
}

// outcome runs f, reporting its result or that it panicked.
func outcome(f func() bool) (holds, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return f(), false
}

// TestCompiledComparisonsMatchCompare: a bound comparison of a column with
// a literal, in either operand order, and of two columns, holds exactly
// when the operator holds for storage.Compare over the same operands in
// the written order — for every operator and every pair of kinds, NaN,
// ±0 and 1 against 1.0 included — and panics exactly when Compare does,
// on a string against a number.
func TestCompiledComparisonsMatchCompare(t *testing.T) {
	cols := []exec.Col{{Table: "t", Name: "a", Type: storage.TFloat}, {Table: "t", Name: "b", Type: storage.TFloat}}
	colA := &sql.ColumnRef{Table: "t", Column: "a"}
	colB := &sql.ColumnRef{Table: "t", Column: "b"}
	checked, panics := 0, 0
	for _, op := range comparisonOps {
		for _, lit := range comparisonValues {
			shapes := []struct {
				e       sql.Expr
				written func(col storage.Value) (storage.Value, storage.Value)
			}{
				{&sql.BinaryExpr{Op: op, Left: colA, Right: literalOf(lit)},
					func(col storage.Value) (storage.Value, storage.Value) { return col, lit }},
				{&sql.BinaryExpr{Op: op, Left: literalOf(lit), Right: colA},
					func(col storage.Value) (storage.Value, storage.Value) { return lit, col }},
				{&sql.BinaryExpr{Op: op, Left: colB, Right: colA},
					func(col storage.Value) (storage.Value, storage.Value) { return lit, col }},
			}
			for _, sh := range shapes {
				pred, err := bindPredicate(sh.e, cols)
				if err != nil {
					t.Fatalf("%s: %v", sh.e, err)
				}
				for _, v := range comparisonValues {
					row := storage.Row{v, lit}
					l, r := sh.written(v)
					want, wantPanic := outcome(func() bool { return opHolds(op, storage.Compare(l, r)) })
					got, gotPanic := outcome(func() bool { return pred(row) })
					if got != want || gotPanic != wantPanic {
						t.Fatalf("%s with a = %s (%s), b = %s (%s): got %v (panic %v), Compare says %v (panic %v)",
							sh.e, v, v.T, lit, lit.T, got, gotPanic, want, wantPanic)
					}
					checked++
					if wantPanic {
						panics++
					}
				}
			}
		}
	}
	if n := len(comparisonValues); checked != len(comparisonOps)*3*n*n || panics == 0 {
		t.Fatalf("checked %d comparisons, %d of them panicking", checked, panics)
	}
}

// TestCompiledComparisonAllocs: evaluating a bound comparison allocates
// nothing, whichever kind of literal it compares a column with and
// whichever kind the column holds.
func TestCompiledComparisonAllocs(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	cols := []exec.Col{{Table: "t", Name: "a", Type: storage.TString}}
	col := &sql.ColumnRef{Table: "t", Column: "a"}
	for _, c := range []struct {
		lit sql.Expr
		v   storage.Value
	}{
		{&sql.StringLit{V: "R05"}, storage.S("R05")},
		{&sql.IntLit{V: 91}, storage.I(7)},
		{&sql.IntLit{V: 91}, storage.F(93.5)},
		{&sql.FloatLit{V: 1.5}, storage.I(1)},
		{&sql.FloatLit{V: 1.5}, storage.F(math.NaN())},
	} {
		for _, e := range []sql.Expr{
			&sql.BinaryExpr{Op: ">=", Left: col, Right: c.lit},
			&sql.BinaryExpr{Op: "<>", Left: c.lit, Right: col},
		} {
			pred, err := bindPredicate(e, cols)
			if err != nil {
				t.Fatal(err)
			}
			row := storage.Row{c.v}
			if n := testing.AllocsPerRun(100, func() { pred(row) }); n != 0 {
				t.Fatalf("%s over %s allocated %v times per evaluation", e, fmt.Sprint(c.v), n)
			}
		}
	}
}
