// Package nondet flags nondeterminism sources inside the deterministic
// core packages: wall-clock reads (time.Now, time.Since, time.Until),
// the global math/rand generator (any top-level function drawing from
// the shared source — seeded rand.New(rand.NewSource(seed)) generators
// are the approved alternative), environment reads (os.Getenv and
// friends), and select statements whose channel operand is taken from a
// map (the chosen case then depends on map iteration order on top of
// select's own randomization).
//
// Which packages count as "deterministic core" is driven by the Policy
// table below, mirroring the replay-determinism contract: everything the
// chaos and byte-identity harnesses compare byte-for-byte must compute
// identical state from identical inputs. That includes the shared engine
// (internal/dataflow), whose output the chaos harness compares with the
// classic engine's, the planner and executor on both engines' drain
// paths (internal/plan, internal/exec), and the
// SQL→IVM compiler path (internal/viewc, internal/costmodel): the same
// seed, database, and query must calibrate byte-identical cost models.
// internal/obs (the measurement layer), internal/experiments (the timing
// harness), and cmd/... (the I/O shell) are deliberately exempt —
// wall-clock there feeds metrics and reports, never replayed state.
package nondet

import (
	"go/ast"
	"go/types"
	"strings"

	"abivm/internal/lint"
)

// Policy lists the package path suffixes that must stay deterministic.
// A package absent from the table is exempt; the notable exemptions and
// why they are safe:
//
//	internal/obs          measurement only; never feeds replayed state
//	internal/experiments  timing/reporting harness around the core
//	internal/policy       consumes only injected cost models and seeds
//	cmd/...               process shell: flags, stdout, signals
var Policy = map[string]bool{
	"internal/ivm":       true,
	"internal/dataflow":  true,
	"internal/exec":      true,
	"internal/plan":      true,
	"internal/pubsub":    true,
	"internal/core":      true,
	"internal/astar":     true,
	"internal/fault":     true,
	"internal/storage":   true,
	"internal/durable":   true,
	"internal/costmodel": true,
	"internal/viewc":     true,
}

// Analyzer is the nondet check.
var Analyzer = &lint.Analyzer{
	Name: "nondet",
	Doc: "flags wall-clock, global math/rand, environment reads, and " +
		"map-keyed selects inside the deterministic core packages",
	AppliesTo: Deterministic,
	Run:       run,
}

// Deterministic reports whether the package path is under the
// determinism policy.
func Deterministic(pkgPath string) bool {
	for suffix := range Policy {
		if pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix) {
			return true
		}
	}
	return false
}

// banned maps import path -> function name -> why it is nondeterministic.
var banned = map[string]map[string]string{
	"time": {
		"Now":   "reads the wall clock",
		"Since": "reads the wall clock",
		"Until": "reads the wall clock",
	},
	"os": {
		"Getenv":    "reads the process environment",
		"LookupEnv": "reads the process environment",
		"Environ":   "reads the process environment",
	},
}

// randAllowed are the math/rand top-level functions that do NOT draw
// from the global source: constructors taking an explicit seed.
var randAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func run(pass *lint.Pass) error {
	info := pass.Pkg.TypesInfo
	for _, file := range pass.Pkg.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkSelector(pass, info, n)
			case *ast.SelectStmt:
				checkSelect(pass, info, n)
			}
			return true
		})
	}
	return nil
}

// checkSelector reports uses (calls or references) of banned functions.
func checkSelector(pass *lint.Pass, info *types.Info, sel *ast.SelectorExpr) {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn) are instance-scoped
	}
	path := fn.Pkg().Path()
	if why, bad := banned[path][fn.Name()]; bad {
		pass.Reportf(sel.Pos(), "%s.%s %s; deterministic packages must take such inputs as explicit parameters", path, fn.Name(), why)
		return
	}
	if (path == "math/rand" || path == "math/rand/v2") && !randAllowed[fn.Name()] {
		pass.Reportf(sel.Pos(), "%s.%s draws from the global generator; use a seeded *rand.Rand owned by the component", path, fn.Name())
	}
}

// checkSelect reports select cases whose channel is indexed out of a
// map: which ready case fires then depends on map iteration order in
// addition to select's randomization.
func checkSelect(pass *lint.Pass, info *types.Info, sel *ast.SelectStmt) {
	for _, clause := range sel.Body.List {
		comm, ok := clause.(*ast.CommClause)
		if !ok || comm.Comm == nil {
			continue
		}
		ch := channelExpr(comm.Comm)
		if ch == nil {
			continue
		}
		if ix := mapIndexIn(info, ch); ix != nil {
			pass.Reportf(ix.Pos(), "select case channel is indexed out of a map; key the channel by a deterministic handle instead")
		}
	}
}

// channelExpr extracts the channel operand of one comm clause.
func channelExpr(s ast.Stmt) ast.Expr {
	switch s := s.(type) {
	case *ast.SendStmt:
		return s.Chan
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok {
			return u.X
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if u, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr); ok {
				return u.X
			}
		}
	}
	return nil
}

// mapIndexIn returns the first map index expression inside e, if any.
func mapIndexIn(info *types.Info, e ast.Expr) *ast.IndexExpr {
	var found *ast.IndexExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		ix, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		if t := info.TypeOf(ix.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				found = ix
			}
		}
		return true
	})
	return found
}
