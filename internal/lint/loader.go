package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Loader parses and type-checks packages of a single module without any
// external tooling: module-local imports are resolved by walking the
// module tree, standard-library imports through the compiler's source
// importer. It loads the package set the go command loads for the host
// platform: build constraints apply, and a nested module is not part of
// "./...". Beyond that it supports only what this repo needs — one
// module, no vendoring, no cgo — which keeps it small enough to audit
// and free of golang.org/x/tools.
type Loader struct {
	ModRoot string // directory containing go.mod
	ModPath string // module path declared in go.mod
	Fset    *token.FileSet

	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader reads go.mod under modRoot and prepares a loader.
func NewLoader(modRoot string) (*Loader, error) {
	modRoot, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.Trim(strings.TrimSpace(rest), `"`)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", modRoot)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModRoot: modRoot,
		ModPath: modPath,
		Fset:    fset,
		// The "source" importer type-checks the standard library from
		// GOROOT/src; unlike export-data importers it needs no compiled
		// artifacts and no subprocesses, so it works in a bare container.
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// Load resolves the patterns ("./...", "dir/...", or plain relative
// directories) and returns the matched packages sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		root := l.ModRoot
		recursive := false
		if pat == "..." {
			recursive = true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root = filepath.Join(l.ModRoot, rest)
			recursive = true
		} else if pat != "" && pat != "." {
			root = filepath.Join(l.ModRoot, pat)
		}
		if !recursive {
			dirs[root] = true
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor" || isModuleRoot(path)) {
				return filepath.SkipDir
			}
			names, err := goFiles(path)
			if len(names) > 0 {
				dirs[path] = true
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	var out []*Package
	for dir := range dirs {
		rel, err := filepath.Rel(l.ModRoot, dir)
		if err != nil {
			return nil, err
		}
		pkgPath := l.ModPath
		if rel != "." {
			pkgPath = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.loadPath(pkgPath)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// LoadDir type-checks a single directory outside the module layout (e.g.
// a testdata fixture) under the given synthetic import path. Imports of
// module packages and of the standard library resolve normally.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.check(dir, asPath)
}

// isModuleRoot reports whether dir holds its own go.mod: a nested module,
// which the go command leaves out of the enclosing module's "./...".
func isModuleRoot(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

// goFiles lists the non-test Go files of dir that the go command builds
// for the host platform: build constraints and _GOOS/_GOARCH file-name
// suffixes apply, and names starting with "_" or "." are skipped.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if match {
			names = append(names, name)
		}
	}
	return names, nil
}

// loadPath loads a module-local package by import path, caching results
// and detecting cycles.
func (l *Loader) loadPath(pkgPath string) (*Package, error) {
	if pkg, ok := l.pkgs[pkgPath]; ok {
		return pkg, nil
	}
	if l.loading[pkgPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", pkgPath)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(pkgPath, l.ModPath), "/")
	dir := filepath.Join(l.ModRoot, filepath.FromSlash(rel))
	l.loading[pkgPath] = true
	defer delete(l.loading, pkgPath)
	pkg, err := l.check(dir, pkgPath)
	if err != nil {
		return nil, err
	}
	l.pkgs[pkgPath] = pkg
	return pkg, nil
}

// check parses and type-checks the non-test Go files of one directory.
func (l *Loader) check(dir, pkgPath string) (*Package, error) {
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", pkgPath, err)
	}
	return &Package{
		PkgPath:   pkgPath,
		Dir:       dir,
		Fset:      l.Fset,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// importPkg resolves one import: module-local paths through the loader,
// everything else through the standard-library source importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
