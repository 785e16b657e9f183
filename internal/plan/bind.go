// Package plan compiles parsed SELECT queries into executable operator
// trees: it binds column references against operator schemas, classifies
// WHERE conjuncts into join and filter predicates, orders joins left-deep
// preferring index-nested-loop joins where a matching index exists, and
// places hash aggregation on top. The IVM engine reuses the same planner
// with one base table replaced by a delta-batch source, which is exactly
// how the paper's maintenance queries are shaped.
package plan

import (
	"fmt"

	"abivm/internal/exec"
	"abivm/internal/sql"
	"abivm/internal/storage"
)

// bindScalar compiles a scalar expression against an input schema.
// Aggregates are rejected; the aggregate path handles them separately.
func bindScalar(e sql.Expr, cols []exec.Col) (exec.Scalar, storage.Type, error) {
	switch x := e.(type) {
	case *sql.ColumnRef:
		idx := exec.FindCol(cols, x.Table, x.Column)
		switch idx {
		case -1:
			return nil, 0, fmt.Errorf("plan: unknown column %s", x)
		case -2:
			return nil, 0, fmt.Errorf("plan: ambiguous column %s", x)
		}
		typ := cols[idx].Type
		return func(r storage.Row) storage.Value { return r[idx] }, typ, nil
	case *sql.IntLit:
		v := storage.I(x.V)
		return func(storage.Row) storage.Value { return v }, storage.TInt, nil
	case *sql.FloatLit:
		v := storage.F(x.V)
		return func(storage.Row) storage.Value { return v }, storage.TFloat, nil
	case *sql.StringLit:
		v := storage.S(x.V)
		return func(storage.Row) storage.Value { return v }, storage.TString, nil
	case *sql.BinaryExpr:
		switch x.Op {
		case "+", "-", "*", "/":
			return bindArith(x, cols)
		}
		return nil, 0, fmt.Errorf("plan: comparison %q used as a scalar", x.Op)
	case *sql.AggExpr:
		return nil, 0, fmt.Errorf("plan: aggregate %s outside an aggregation context", x)
	}
	return nil, 0, fmt.Errorf("plan: unsupported expression %T", e)
}

func bindArith(x *sql.BinaryExpr, cols []exec.Col) (exec.Scalar, storage.Type, error) {
	left, lt, err := bindScalar(x.Left, cols)
	if err != nil {
		return nil, 0, err
	}
	right, rt, err := bindScalar(x.Right, cols)
	if err != nil {
		return nil, 0, err
	}
	if lt == storage.TString || rt == storage.TString {
		return nil, 0, fmt.Errorf("plan: arithmetic on string operands in %s", x)
	}
	intResult := lt == storage.TInt && rt == storage.TInt && x.Op != "/"
	op := x.Op
	if intResult {
		return func(r storage.Row) storage.Value {
			a, b := left(r).Int(), right(r).Int()
			switch op {
			case "+":
				return storage.I(a + b)
			case "-":
				return storage.I(a - b)
			default: // "*"
				return storage.I(a * b)
			}
		}, storage.TInt, nil
	}
	return func(r storage.Row) storage.Value {
		a, b := left(r).Float(), right(r).Float()
		switch op {
		case "+":
			return storage.F(a + b)
		case "-":
			return storage.F(a - b)
		case "*":
			return storage.F(a * b)
		default: // "/"
			return storage.F(a / b)
		}
	}, storage.TFloat, nil
}

// bindPredicate compiles a comparison conjunct into a Predicate. The
// operator is resolved here, not per row, and a column compared with a
// literal gets a closure that reads the column and compares it with the
// literal built once (compareLit) — the shape of every single-table
// filter a view pushes onto a join side.
func bindPredicate(e sql.Expr, cols []exec.Col) (exec.Predicate, error) {
	b, ok := e.(*sql.BinaryExpr)
	if !ok {
		return nil, fmt.Errorf("plan: WHERE conjunct %s is not a comparison", e)
	}
	holds, ok := cmpOutcomes[b.Op]
	if !ok {
		return nil, fmt.Errorf("plan: WHERE conjunct %s is not a comparison", e)
	}
	left, _, err := bindScalar(b.Left, cols)
	if err != nil {
		return nil, err
	}
	right, _, err := bindScalar(b.Right, cols)
	if err != nil {
		return nil, err
	}
	if col, ok := b.Left.(*sql.ColumnRef); ok && isLiteral(b.Right) {
		return compareLit(exec.FindCol(cols, col.Table, col.Column), right(nil), false, holds), nil
	}
	if col, ok := b.Right.(*sql.ColumnRef); ok && isLiteral(b.Left) {
		return compareLit(exec.FindCol(cols, col.Table, col.Column), left(nil), true, holds), nil
	}
	return func(r storage.Row) bool {
		return holds.of(storage.Compare(left(r), right(r)))
	}, nil
}

func isLiteral(e sql.Expr) bool {
	switch e.(type) {
	case *sql.IntLit, *sql.FloatLit, *sql.StringLit:
		return true
	}
	return false
}

// outcomes is the set of three-way comparison results under which a
// comparison operator holds: bit 0 for less, bit 1 for equal, bit 2 for
// greater.
type outcomes uint8

var cmpOutcomes = map[string]outcomes{"<": 1, "=": 2, "<=": 3, ">": 4, "<>": 5, ">=": 6}

// of reports whether the operator holds for a storage.Compare result.
func (o outcomes) of(c int) bool { return o&(1<<(c+1)) != 0 }

// swapped is the operator with its operands exchanged: < becomes >.
func (o outcomes) swapped() outcomes { return o&2 | o&1<<2 | o&4>>2 }

// compareLit is the predicate "row[idx] op lit" (or "lit op row[idx]"
// when litLeft). A string against a string literal, or a number against
// a number, compares inline as storage.Compare would — two integers as
// integers, any other pair of numbers as floats; whatever else goes
// through storage.Compare in the written operand order, so a cross-type
// comparison panics exactly as it does unbound.
func compareLit(idx int, lit storage.Value, litLeft bool, holds outcomes) exec.Predicate {
	if litLeft {
		holds = holds.swapped()
	}
	switch lit.T {
	case storage.TString:
		s := lit.Str()
		return func(r storage.Row) bool {
			if v := r[idx]; v.T == storage.TString {
				return holds.of(three(v.Str(), s))
			}
			return holds.of(compareWritten(r[idx], lit, litLeft))
		}
	case storage.TInt:
		n, f := lit.Int(), lit.Float()
		return func(r storage.Row) bool {
			switch v := r[idx]; v.T {
			case storage.TInt:
				return holds.of(three(v.Int(), n))
			case storage.TFloat:
				return holds.of(three(v.Float(), f))
			}
			return holds.of(compareWritten(r[idx], lit, litLeft))
		}
	default:
		f := lit.Float()
		return func(r storage.Row) bool {
			if v := r[idx]; v.T != storage.TString {
				return holds.of(three(v.Float(), f))
			}
			return holds.of(compareWritten(r[idx], lit, litLeft))
		}
	}
}

// compareWritten is storage.Compare(v, lit) called with the operands in
// the order the conjunct wrote them, so its panic names them that way.
func compareWritten(v, lit storage.Value, litLeft bool) int {
	if litLeft {
		return -storage.Compare(lit, v)
	}
	return storage.Compare(v, lit)
}

// three is storage.Compare on two values of one ordered kind: NaN is
// neither below nor above anything, so it compares as equal.
func three[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// exprTables collects the table aliases referenced by an expression.
// Unqualified references resolve through the alias→columns map; ambiguous
// or unknown references surface as errors at bind time instead.
func exprTables(e sql.Expr, out map[string]bool, resolve func(col string) string) {
	switch x := e.(type) {
	case *sql.ColumnRef:
		if x.Table != "" {
			out[x.Table] = true
		} else if owner := resolve(x.Column); owner != "" {
			out[owner] = true
		}
	case *sql.BinaryExpr:
		exprTables(x.Left, out, resolve)
		exprTables(x.Right, out, resolve)
	case *sql.AggExpr:
		if x.Arg != nil {
			exprTables(x.Arg, out, resolve)
		}
	}
}
