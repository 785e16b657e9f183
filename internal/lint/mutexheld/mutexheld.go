// Package mutexheld flags unguarded accesses to mutex-protected struct
// fields. For every struct type that carries a sync.Mutex or
// sync.RWMutex field (named or embedded), a sibling field counts as
// *guarded* when at least one method of the type accesses it while
// acquiring that mutex. Methods that then touch a guarded field without
// acquiring the lock are reported — the class of data race the broker
// accessor work (Health/Result/TotalCost scraping a live workload loop)
// fixed by hand.
//
// The repo's locking idiom is "exported methods lock, unexported
// helpers run under the caller's lock", so a naming convention is not
// enough: the analyzer builds the intra-type call graph and exempts a
// non-locking method when every one of its same-type callers holds the
// lock (directly or transitively). A method nobody calls — the typical
// freshly added accessor — gets no such benefit of the doubt.
//
// This is a heuristic, not a proof: lock acquisition is recognized
// anywhere in the method body (no flow sensitivity), cross-type calls
// are not tracked, and fields published before the owning goroutine
// shares the struct are indistinguishable from races. False positives
// carry a //lint:ignore mutexheld with the invariant that makes the
// access safe.
package mutexheld

import (
	"go/ast"
	"go/token"
	"go/types"

	"abivm/internal/lint"
)

// Analyzer is the mutexheld check.
var Analyzer = &lint.Analyzer{
	Name: "mutexheld",
	Doc: "flags methods accessing mutex-guarded struct fields without " +
		"holding the lock (call-graph aware)",
	Run: run,
}

// access records where a method first touches a field.
type access struct {
	field string
	pos   token.Pos
}

// method is the per-method summary the fixpoint runs on.
type method struct {
	name     string
	locks    bool     // acquires the receiver's mutex somewhere in the body
	accesses []access // non-mutex struct fields read or written via the receiver
	calls    map[string]bool
}

func run(pass *lint.Pass) error {
	for _, st := range structsWithMutex(pass.Pkg) {
		checkStruct(pass, st)
	}
	return nil
}

// mutexStruct is one struct type carrying a mutex field.
type mutexStruct struct {
	obj    *types.TypeName
	fields map[string]bool // all field names
	mu     map[string]bool // the mutex field names ("Mutex"/"RWMutex" for embedded)
}

func structsWithMutex(pkg *lint.Package) []*mutexStruct {
	var out []*mutexStruct
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		ms := &mutexStruct{obj: tn, fields: map[string]bool{}, mu: map[string]bool{}}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			ms.fields[f.Name()] = true
			if isMutex(f.Type()) {
				ms.mu[f.Name()] = true
			}
		}
		if len(ms.mu) > 0 {
			out = append(out, ms)
		}
	}
	return out
}

func isMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func checkStruct(pass *lint.Pass, ms *mutexStruct) {
	info := pass.Pkg.TypesInfo
	methods := map[string]*method{}

	lint.InspectFuncDecls(pass.Pkg, func(decl *ast.FuncDecl) {
		recvObj := receiverOf(info, decl, ms.obj)
		if recvObj == nil {
			return
		}
		m := &method{name: decl.Name.Name, calls: map[string]bool{}}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			base, ok := ast.Unparen(sel.X).(*ast.Ident)
			if ok && info.Uses[base] == recvObj {
				name := sel.Sel.Name
				switch {
				case ms.mu[name]: // r.mu.Lock() — handled one level up
				case ms.fields[name]:
					m.accesses = append(m.accesses, access{field: name, pos: sel.Sel.Pos()})
				default:
					m.calls[name] = true // r.Helper(...) or promoted method
					// Embedded mutex: r.Lock() / r.RLock() directly.
					if (name == "Lock" || name == "RLock") && embeddedMutexMethod(info, sel) {
						m.locks = true
					}
				}
				return true
			}
			// r.mu.Lock() / r.mu.RLock(): selector whose X is itself the
			// receiver's mutex field.
			if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
				if ib, ok := ast.Unparen(inner.X).(*ast.Ident); ok && info.Uses[ib] == recvObj && ms.mu[inner.Sel.Name] {
					if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
						m.locks = true
					}
				}
			}
			return true
		})
		methods[m.name] = m
	})

	guarded := map[string]bool{}
	for _, m := range methods {
		if m.locks {
			for _, a := range m.accesses {
				guarded[a.field] = true
			}
		}
	}
	if len(guarded) == 0 {
		return
	}

	// Fixpoint: a non-locking method is safe when it has at least one
	// same-type caller and every caller is safe.
	callers := map[string][]string{}
	for name, m := range methods {
		for callee := range m.calls {
			if _, isMethod := methods[callee]; isMethod {
				callers[callee] = append(callers[callee], name)
			}
		}
	}
	safe := map[string]bool{}
	for name, m := range methods {
		safe[name] = m.locks
	}
	for changed := true; changed; {
		changed = false
		for name := range methods {
			if safe[name] || len(callers[name]) == 0 {
				continue
			}
			all := true
			for _, c := range callers[name] {
				if !safe[c] {
					all = false
					break
				}
			}
			if all {
				safe[name] = true
				changed = true
			}
		}
	}

	for name, m := range methods {
		if safe[name] {
			continue
		}
		reported := map[string]bool{}
		for _, a := range m.accesses {
			if guarded[a.field] && !reported[a.field] {
				reported[a.field] = true
				pass.Reportf(a.pos, "%s.%s accesses %q, which other methods guard with the mutex, without holding the lock", ms.obj.Name(), name, a.field)
			}
		}
	}
}

// receiverOf returns the receiver variable object when decl is a method
// of the given type (pointer or value receiver), else nil.
func receiverOf(info *types.Info, decl *ast.FuncDecl, tn *types.TypeName) types.Object {
	if decl.Recv == nil || len(decl.Recv.List) != 1 || len(decl.Recv.List[0].Names) != 1 {
		return nil
	}
	id := decl.Recv.List[0].Names[0]
	obj := info.Defs[id]
	if obj == nil {
		return nil
	}
	t := obj.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() != tn {
		return nil
	}
	return obj
}

// embeddedMutexMethod reports whether the selected Lock/RLock resolves
// through an embedded sync.Mutex/RWMutex field.
func embeddedMutexMethod(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok {
		return false
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync"
}
