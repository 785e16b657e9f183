// Package lint is a minimal, dependency-free static-analysis framework
// for the abivm tree. It mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer / Pass / diagnostics) but is built entirely on the standard
// library (go/parser + go/types), so the module keeps its zero-dependency,
// offline-buildable property.
//
// Analyzers check the invariants replay determinism rests on and the
// compiler cannot see — map iteration order leaking into output,
// wall-clock and global-rand reads in the deterministic core, and
// mutex-guarded fields touched without the lock — and are wired together
// by cmd/abivmlint.
//
// A finding can be suppressed with a directive comment on the offending
// line or the line directly above it:
//
//	//lint:ignore nondet drain latency feeds metrics only, never maintained state
//
// The first field after "ignore" is a comma-separated list of analyzer
// names ("*" matches every analyzer); the rest of the line is a mandatory
// justification. A directive that suppresses nothing is itself a finding,
// so a waiver cannot outlive the code or the analyzer it was written for.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in findings and ignore directives.
	Name string
	// Doc is a one-paragraph description shown by abivmlint -list.
	Doc string
	// AppliesTo filters the packages the driver hands to Run; nil means
	// every package. Tests bypass the filter and feed fixtures directly.
	AppliesTo func(pkgPath string) bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one reported diagnostic.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
	// Suppressed carries the lint:ignore justification when the finding
	// was waived; empty for live findings.
	Suppressed string `json:"suppressed,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// staleIgnore is the analyzer name on findings about lint:ignore
// directives that suppress nothing.
const staleIgnore = "lint"

// Run applies the analyzers to the packages, drops findings suppressed by
// lint:ignore directives, and returns the rest sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	kept, _, err := RunAll(pkgs, analyzers)
	return kept, err
}

// RunAll is Run, but it also returns the findings that lint:ignore
// directives suppressed (each tagged with its justification), so drivers
// can count and publish the waived exceptions alongside the live ones —
// the -json CI artifact reports both. Every directive that suppressed
// nothing is a live finding: one naming no analyzer in the set, and one
// whose analyzers matched nothing at its line, including an analyzer
// whose AppliesTo skips the package. Both slices are sorted by position.
func RunAll(pkgs []*Package, analyzers []*Analyzer) (kept, suppressed []Finding, err error) {
	var findings []Finding
	known := map[string]bool{"*": true}
	for _, a := range analyzers {
		if a.Run == nil {
			return nil, nil, fmt.Errorf("lint: analyzer %q has no Run function", a.Name)
		}
		known[a.Name] = true
		for _, pkg := range pkgs {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.PkgPath) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, findings: &findings}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	directives := parseDirectives(pkgs)
	kept, suppressed = suppressIgnored(directives, findings)
	kept = append(kept, staleDirectives(directives, known)...)
	sortFindings(kept)
	sortFindings(suppressed)
	return kept, suppressed, nil
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ignoreDirective is one parsed lint:ignore comment.
type ignoreDirective struct {
	pos    token.Position
	names  []string
	reason string
	used   bool // suppressed at least one finding
}

// parseDirectives collects every lint:ignore directive of the packages
// in source order.
func parseDirectives(pkgs []*Package) []*ignoreDirective {
	var out []*ignoreDirective
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if d, ok := parseIgnore(c.Text); ok {
						d.pos = pkg.Fset.Position(c.Pos())
						out = append(out, &d)
					}
				}
			}
		}
	}
	return out
}

// ignoreKey locates one lint:ignore directive.
type ignoreKey struct {
	file string
	line int
}

// suppressIgnored splits findings into those that survive and those
// covered by a lint:ignore directive on the same line or the line
// directly above; suppressed findings carry the directive's reason, and
// the directives that covered one are marked used.
func suppressIgnored(directives []*ignoreDirective, findings []Finding) (kept, suppressed []Finding) {
	if len(directives) == 0 {
		return findings, nil
	}
	ignores := map[ignoreKey][]*ignoreDirective{}
	for _, d := range directives {
		k := ignoreKey{d.pos.Filename, d.pos.Line}
		ignores[k] = append(ignores[k], d)
	}
	kept = findings[:0]
	for _, f := range findings {
		d := ignoredAt(ignores[ignoreKey{f.Pos.Filename, f.Pos.Line}], f.Analyzer)
		if d == nil {
			d = ignoredAt(ignores[ignoreKey{f.Pos.Filename, f.Pos.Line - 1}], f.Analyzer)
		}
		if d != nil {
			d.used = true
			f.Suppressed = d.reason
			suppressed = append(suppressed, f)
			continue
		}
		kept = append(kept, f)
	}
	return kept, suppressed
}

func ignoredAt(directives []*ignoreDirective, analyzer string) *ignoreDirective {
	for _, d := range directives {
		for _, name := range d.names {
			if name == "*" || name == analyzer {
				return d
			}
		}
	}
	return nil
}

// staleDirectives reports every directive that suppressed nothing.
func staleDirectives(directives []*ignoreDirective, known map[string]bool) []Finding {
	var out []Finding
	for _, d := range directives {
		if d.used {
			continue
		}
		names := strings.Join(d.names, ",")
		msg := "lint:ignore " + names + " names no registered analyzer"
		for _, name := range d.names {
			if known[name] {
				msg = "lint:ignore " + names + " suppresses nothing here; delete it"
				break
			}
		}
		out = append(out, Finding{Analyzer: staleIgnore, Pos: d.pos, Message: msg})
	}
	return out
}

// parseIgnore recognizes "//lint:ignore name1,name2 justification" and
// returns the analyzer names plus the justification. Directives without
// a justification are not honored, so every suppression carries its
// reason in the source.
func parseIgnore(text string) (ignoreDirective, bool) {
	const prefix = "//lint:ignore "
	if !strings.HasPrefix(text, prefix) {
		return ignoreDirective{}, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	fields := strings.Fields(rest)
	if len(fields) < 2 { // names + at least one word of justification
		return ignoreDirective{}, false
	}
	return ignoreDirective{
		names:  strings.Split(fields[0], ","),
		reason: strings.Join(fields[1:], " "),
	}, true
}

// InspectFuncDecls walks every function declaration with a body in the
// package — the shared entry point of the syntactic analyzers.
func InspectFuncDecls(pkg *Package, fn func(decl *ast.FuncDecl)) {
	for _, file := range pkg.Syntax {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
