package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for loader error-path tests:
// a go.mod (unless modLine is "") and the given relative-path → content
// files.
func writeModule(t *testing.T, modLine string, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	if modLine != "" {
		if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte(modLine), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestNewLoaderMissingGoMod(t *testing.T) {
	root := writeModule(t, "", nil)
	if _, err := NewLoader(root); err == nil {
		t.Fatal("NewLoader on a directory without go.mod: want error, got nil")
	} else if !strings.Contains(err.Error(), "go.mod") {
		t.Fatalf("error should mention go.mod: %v", err)
	}
}

func TestNewLoaderNoModuleDirective(t *testing.T) {
	root := writeModule(t, "go 1.22\n", nil)
	_, err := NewLoader(root)
	if err == nil {
		t.Fatal("NewLoader on go.mod without a module line: want error, got nil")
	}
	if !strings.Contains(err.Error(), "no module directive") {
		t.Fatalf("error should name the missing module directive: %v", err)
	}
}

func TestLoadUnparsableFile(t *testing.T) {
	root := writeModule(t, "module broken\n", map[string]string{
		"bad/bad.go": "package bad\n\nfunc oops() {\n", // unbalanced brace
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load("bad"); err == nil {
		t.Fatal("loading a package with a syntax error: want error, got nil")
	}
}

func TestLoadEmptyPackageDir(t *testing.T) {
	root := writeModule(t, "module empty\n", map[string]string{
		// Only a test file: not a source file, so the directory has no
		// loadable Go files.
		"only/only_test.go": "package only\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.Load("only")
	if err == nil {
		t.Fatal("loading a directory without non-test Go files: want error, got nil")
	}
	if !strings.Contains(err.Error(), "no Go files") {
		t.Fatalf("error should say the directory has no Go files: %v", err)
	}
}

func TestLoadTypeCheckFailure(t *testing.T) {
	root := writeModule(t, "module typo\n", map[string]string{
		"p/p.go": "package p\n\nvar x undeclaredType\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.Load("p")
	if err == nil {
		t.Fatal("loading a package that fails type-checking: want error, got nil")
	}
	if !strings.Contains(err.Error(), "type-checking") {
		t.Fatalf("error should come from the type-check phase: %v", err)
	}
}

func TestLoadImportCycle(t *testing.T) {
	root := writeModule(t, "module cyc\n", map[string]string{
		"a/a.go": "package a\n\nimport \"cyc/b\"\n\nvar _ = b.B\n",
		"b/b.go": "package b\n\nimport \"cyc/a\"\n\nvar B = 1\n\nvar _ = a.A\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.Load("a")
	if err == nil {
		t.Fatal("loading an import cycle: want error, got nil")
	}
	if !strings.Contains(err.Error(), "import cycle") {
		t.Fatalf("error should name the import cycle: %v", err)
	}
}

func TestLoadDirOutsideModule(t *testing.T) {
	root := writeModule(t, "module host\n", nil)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	fixture := t.TempDir()
	if err := os.WriteFile(filepath.Join(fixture, "f.go"), []byte("package f\n\nvar F = 42\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(fixture, "example.test/f")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.PkgPath != "example.test/f" {
		t.Fatalf("PkgPath = %q, want the synthetic path", pkg.PkgPath)
	}
	if pkg.Types == nil || pkg.TypesInfo == nil || len(pkg.Syntax) != 1 {
		t.Fatalf("loaded package is missing type info or syntax: %+v", pkg)
	}
}

func TestLoadRecursivePatternSkipsTestdata(t *testing.T) {
	root := writeModule(t, "module walk\n", map[string]string{
		"p/p.go":               "package p\n",
		"p/testdata/skip.go":   "package not even parseable {{{\n",
		"p/_hidden/skip.go":    "package also broken (((\n",
		"p/.dotted/skip.go":    "package broken too )))\n",
		"p/inner/q.go":         "package inner\n",
		"p/inner/docsonly.txt": "not go\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("p/...")
	if err != nil {
		t.Fatalf("recursive load should skip testdata/_ /. dirs: %v", err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.PkgPath)
	}
	want := []string{"walk/p", "walk/p/inner"}
	if len(paths) != len(want) || paths[0] != want[0] || paths[1] != want[1] {
		t.Fatalf("Load(p/...) = %v, want %v", paths, want)
	}
}

func TestLoadRecursivePatternSkipsNestedModule(t *testing.T) {
	root := writeModule(t, "module outer\n", map[string]string{
		"p/p.go":        "package p\n",
		"nested/go.mod": "module outer/nested\n",
		"nested/n.go":   "package nested\n\nvar x undeclaredType\n",
		"nested/q/q.go": "package q\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("./... should not reach a nested module: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].PkgPath != "outer/p" {
		var paths []string
		for _, p := range pkgs {
			paths = append(paths, p.PkgPath)
		}
		t.Fatalf("Load(./...) = %v, want [outer/p]", paths)
	}
}

func TestLoadHonoursBuildConstraints(t *testing.T) {
	root := writeModule(t, "module tags\n", map[string]string{
		// The shape of internal/testenv: one name, declared once per side
		// of a constraint. Loading both files would redeclare it.
		"p/on.go":     "//go:build abivm_never_set\n\npackage p\n\nconst On = true\n",
		"p/off.go":    "//go:build !abivm_never_set\n\npackage p\n\nconst On = false\n",
		"p/ignore.go": "//go:build ignore\n\npackage main\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("files excluded by their build constraints must not be loaded: %v", err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Syntax) != 1 {
		t.Fatalf("loaded %d packages, want one package of one file", len(pkgs))
	}
	if c, ok := pkgs[0].Types.Scope().Lookup("On").(*types.Const); !ok || c.Val().String() != "false" {
		t.Fatalf("On should come from the !abivm_never_set file, got %v", pkgs[0].Types.Scope().Lookup("On"))
	}
}
