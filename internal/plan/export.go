package plan

import (
	"abivm/internal/exec"
	"abivm/internal/sql"
	"abivm/internal/storage"
)

// BindScalar compiles a scalar expression against an input schema — the
// exported form of the binder the planner uses internally, so other
// incremental runtimes (internal/dataflow) evaluate expressions with
// exactly the planner's semantics instead of reimplementing them.
// Aggregates are rejected.
func BindScalar(e sql.Expr, cols []exec.Col) (exec.Scalar, storage.Type, error) {
	return bindScalar(e, cols)
}

// BindPredicate compiles a WHERE conjunct (a comparison) against an
// input schema — the exported form of the planner's predicate binder,
// which refuses a comparison of a string with a number.
func BindPredicate(e sql.Expr, cols []exec.Col) (exec.Predicate, error) {
	return bindCondition(e, cols)
}
