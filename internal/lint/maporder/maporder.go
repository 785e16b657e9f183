// Package maporder flags range loops over maps whose iteration order
// escapes into observable state. Go randomizes map iteration on purpose;
// every replay-determinism proof in this repo (faulted-vs-baseline chaos
// comparisons, sharded-vs-serial byte identity) silently breaks the
// moment a map range feeds notification order, WAL contents, writer
// output, a visitor callback, or a first/last-match selection.
//
// The one blessed idiom is collect-then-sort: a loop whose only effect
// is appending to a slice is clean when that slice is passed to a
// sort.* / slices.Sort* call later in the same block — iteration order
// is repaired before it can be observed. Everything else that lets the
// order out is reported:
//
//   - channel sends inside the loop body
//   - calls to output-shaped functions (Write*, Print*, Fprint*,
//     Notify*, Publish*, Send*, Emit*, Record*, Log*, Append*)
//   - invoking a function-typed variable or parameter (visitor
//     callbacks observe the order they are called in)
//   - appends to slices declared outside the loop that are never sorted
//   - assignments of iteration-derived values to outer variables
//     (first-match-wins and last-match-wins selections), returns of
//     iteration-derived values, and floating-point accumulation
//     (summation order changes the last ulp)
//
// Per-key map writes (m2[k] = ... keyed by the iteration variable) and
// integer accumulation are commutative and stay untouched.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"abivm/internal/lint"
)

// Analyzer is the maporder check.
var Analyzer = &lint.Analyzer{
	Name: "maporder",
	Doc: "flags range-over-map loops whose iteration order escapes into " +
		"observable state (sends, writes, callbacks, unsorted collects)",
	Run: run,
}

// sinkName matches function and method names whose call makes iteration
// order observable: anything that writes, notifies, logs, or forwards.
var sinkName = regexp.MustCompile(`^(Write|Print|Fprint|Notify|Publish|Send|Emit|Record|Log|Append|Enqueue|Push)`)

func run(pass *lint.Pass) error {
	info := pass.Pkg.TypesInfo
	lint.InspectFuncDecls(pass.Pkg, func(decl *ast.FuncDecl) {
		inspectBlocks(decl.Body, func(stmts []ast.Stmt) {
			for i, s := range stmts {
				rs, ok := s.(*ast.RangeStmt)
				if !ok || !isMapType(info, rs.X) {
					continue
				}
				checkRange(pass, rs, stmts[i+1:])
			}
		})
	})
	return nil
}

// inspectBlocks visits every statement list in the body (blocks, case
// clauses, comm clauses), so range statements are seen next to the
// statements that follow them — needed to recognize the sort-after idiom.
func inspectBlocks(body *ast.BlockStmt, fn func([]ast.Stmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			fn(n.List)
		case *ast.CaseClause:
			fn(n.Body)
		case *ast.CommClause:
			fn(n.Body)
		}
		return true
	})
}

// collect is one append-to-outer-slice sink, redeemable by a later sort.
type collect struct {
	obj types.Object // the slice variable appended to
	pos token.Pos
}

func checkRange(pass *lint.Pass, rs *ast.RangeStmt, rest []ast.Stmt) {
	info := pass.Pkg.TypesInfo
	loopVars := rangeVarObjects(info, rs)
	var collects []collect

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			// A nested map range runs its own checkRange via the outer
			// inspectBlocks walk; don't double-report its body here.
			if n != rs && isMapType(info, n.X) {
				return false
			}
		case *ast.SendStmt:
			pass.Reportf(n.Arrow, "channel send inside a range over a map: receive order depends on map iteration order")
		case *ast.CallExpr:
			checkCall(pass, info, n)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if referencesAny(info, res, loopVars) {
					pass.Reportf(res.Pos(), "returns a value derived from map iteration: which element wins depends on iteration order")
					break
				}
			}
		case *ast.AssignStmt:
			checkAssign(pass, info, rs, n, loopVars, &collects)
		}
		return true
	})

	// The collect-then-sort idiom: every collected slice must be sorted
	// in the statements that follow the loop.
	for _, c := range collects {
		if !sortedAfter(info, rest, c.obj) {
			pass.Reportf(c.pos, "append inside a range over a map without sorting %s afterwards: element order depends on map iteration order", c.obj.Name())
		}
	}
}

// checkCall reports calls that make iteration order observable: sinks by
// name, and invocations of function-typed variables (visitor callbacks).
func checkCall(pass *lint.Pass, info *types.Info, call *ast.CallExpr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sinkName.MatchString(fun.Sel.Name) {
			pass.Reportf(call.Pos(), "calls %s inside a range over a map: output order depends on map iteration order", fun.Sel.Name)
		}
	case *ast.Ident:
		obj := info.Uses[fun]
		if v, ok := obj.(*types.Var); ok {
			if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
				pass.Reportf(call.Pos(), "invokes callback %s inside a range over a map: it observes map iteration order", fun.Name)
			}
		}
	}
}

// isBuiltin reports whether id resolves to a universe-scope builtin
// (append has no Uses entry pointing at a package object).
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	obj := info.Uses[id]
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// checkAssign classifies assignments in the loop body. Writes to
// variables declared inside the loop, per-key map writes, and integer
// accumulation are order-independent; appends to outer slices become
// redeemable collects; everything else that stores an iteration-derived
// value into outer state is reported.
func checkAssign(pass *lint.Pass, info *types.Info, rs *ast.RangeStmt, as *ast.AssignStmt, loopVars map[types.Object]bool, collects *[]collect) {
	for i, lhs := range as.Lhs {
		obj := assignTarget(info, lhs)
		if obj == nil || declaredWithin(obj, rs) || loopVars[obj] {
			continue
		}
		// m2[k] = v keyed by the iteration variable touches each key
		// once; order cannot matter.
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && referencesAny(info, ix.Index, loopVars) {
			continue
		}
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		if rhs != nil {
			if call, isCall := ast.Unparen(rhs).(*ast.CallExpr); isCall {
				if id, isID := ast.Unparen(call.Fun).(*ast.Ident); isID && id.Name == "append" && isBuiltin(info, id) {
					*collects = append(*collects, collect{obj: obj, pos: as.Pos()})
					continue
				}
			}
		}
		if as.Tok != token.ASSIGN && isInteger(obj.Type()) {
			continue // n += 1, total |= bits: commutative on integers
		}
		if as.Tok != token.ASSIGN && isFloat(obj.Type()) {
			pass.Reportf(as.Pos(), "floating-point accumulation over a map: summation order changes the result in the last ulp; collect and sort first")
			continue
		}
		if rhs != nil && referencesAny(info, rhs, loopVars) {
			pass.Reportf(as.Pos(), "assigns an iteration-derived value to %s declared outside the loop: which element wins depends on map iteration order", obj.Name())
		}
	}
}

// assignTarget resolves the variable an assignment ultimately stores
// into: the ident itself, the index base (s[i] = v stores into s), or
// the selector base (x.f = v stores into x).
func assignTarget(info *types.Info, lhs ast.Expr) types.Object {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if obj := info.Defs[e]; obj != nil {
				return obj
			}
			return info.Uses[e]
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj is declared inside the range
// statement (loop-local state resets every iteration).
func declaredWithin(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()
}

// rangeVarObjects returns the key/value loop variable objects.
func rangeVarObjects(info *types.Info, rs *ast.RangeStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok {
			continue
		}
		if obj := info.Defs[id]; obj != nil {
			out[obj] = true
		} else if obj := info.Uses[id]; obj != nil {
			out[obj] = true
		}
	}
	return out
}

// referencesAny reports whether expr mentions any of the objects.
func referencesAny(info *types.Info, expr ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// sortedAfter reports whether one of the trailing statements sorts obj:
// a call to sort.* or slices.Sort* mentioning obj in its arguments.
func sortedAfter(info *types.Info, rest []ast.Stmt, obj types.Object) bool {
	objs := map[types.Object]bool{obj: true}
	for _, s := range rest {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			if pkgName, isPkg := info.Uses[pkg].(*types.PkgName); isPkg {
				path := pkgName.Imported().Path()
				if path == "sort" || path == "slices" {
					for _, arg := range call.Args {
						if referencesAny(info, arg, objs) {
							found = true
						}
					}
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func isMapType(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
