package lint

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//lint:ignore nondet metrics only", []string{"nondet"}},
		{"//lint:ignore nondet,maporder shared reason", []string{"nondet", "maporder"}},
		{"//lint:ignore * blanket waiver with reason", []string{"*"}},
		{"//lint:ignore nondet", nil}, // missing justification: not honored
		{"// lint:ignore nondet reason", nil},
		{"// plain comment", nil},
	}
	for _, c := range cases {
		got, ok := parseIgnore(c.text)
		if (c.want == nil) == ok {
			t.Errorf("parseIgnore(%q) ok=%v, want %v", c.text, ok, c.want != nil)
			continue
		}
		if strings.Join(got.names, ",") != strings.Join(c.want, ",") {
			t.Errorf("parseIgnore(%q) = %v, want %v", c.text, got.names, c.want)
		}
		if ok && got.reason == "" {
			t.Errorf("parseIgnore(%q) lost the justification", c.text)
		}
	}
}

func TestLoaderTypeChecksModulePackages(t *testing.T) {
	root, err := FindModRoot()
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./internal/core", "./internal/lgm")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	for _, p := range pkgs {
		if p.Types == nil || len(p.Syntax) == 0 {
			t.Errorf("package %s not fully loaded", p.PkgPath)
		}
	}
	// lgm sorts after core and must see core's Vector type through the
	// module-local importer.
	core, lgm := pkgs[0], pkgs[1]
	if !strings.HasSuffix(core.PkgPath, "internal/core") || !strings.HasSuffix(lgm.PkgPath, "internal/lgm") {
		t.Fatalf("unexpected package order: %s, %s", core.PkgPath, lgm.PkgPath)
	}
	if core.Types.Scope().Lookup("Vector") == nil {
		t.Error("core.Vector not found in type-checked package")
	}
}

func TestRunSortsAndSuppresses(t *testing.T) {
	root, err := FindModRoot()
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./internal/core")
	if err != nil {
		t.Fatal(err)
	}
	reportAll := &Analyzer{
		Name: "everyline",
		Doc:  "test analyzer reporting each file once",
		Run: func(p *Pass) error {
			for _, f := range p.Pkg.Syntax {
				p.Reportf(f.Package, "package clause")
			}
			return nil
		},
	}
	findings, err := Run(pkgs, []*Analyzer{reportAll})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != len(pkgs[0].Syntax) {
		t.Fatalf("got %d findings, want %d", len(findings), len(pkgs[0].Syntax))
	}
	for i := 1; i < len(findings); i++ {
		if findings[i].Pos.Filename < findings[i-1].Pos.Filename {
			t.Fatal("findings not sorted by filename")
		}
	}
	if base := filepath.Base(findings[0].Pos.Filename); !strings.HasSuffix(base, ".go") {
		t.Errorf("finding position %q is not a Go file", base)
	}
}

// TestStaleIgnoreIsAFinding runs an analyzer flagging every call to
// flagged over a fixture with one directive that suppresses a finding and
// two that suppress nothing: the first names the analyzer, the second no
// analyzer at all. Both stale ones are live findings.
func TestStaleIgnoreIsAFinding(t *testing.T) {
	flagCall := &Analyzer{
		Name: "flagcall",
		Doc:  "test analyzer reporting every call to flagged",
		Run: func(p *Pass) error {
			for _, f := range p.Pkg.Syntax {
				ast.Inspect(f, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "flagged" {
							p.Reportf(call.Pos(), "call to flagged")
						}
					}
					return true
				})
			}
			return nil
		},
	}
	RunFixture(t, flagCall, "testdata/src/stale")
}

func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "x", Pos: token.Position{Filename: "a.go", Line: 3, Column: 7}, Message: "m"}
	if got := f.String(); got != "a.go:3:7: [x] m" {
		t.Errorf("Finding.String() = %q", got)
	}
}
