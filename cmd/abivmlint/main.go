// Command abivmlint is the domain-aware static-analysis suite for the
// abivm tree. It bundles three analyzers over the invariants replay
// determinism rests on and the compiler cannot check:
//
//	maporder    map iteration order escaping into observable state
//	nondet      wall-clock / global rand / env reads in deterministic packages
//	mutexheld   mutex-guarded struct fields accessed without the lock
//
// Usage:
//
//	abivmlint [-list] [-json] [packages]
//
// Packages default to ./... relative to the enclosing module. The exit
// status is 1 when any live finding is reported. Findings are suppressed
// by a "//lint:ignore <analyzer> <reason>" comment on the offending line
// or the line above it, and a directive that suppresses nothing is a
// live finding of its own; -json reports the suppressed findings (with
// their justifications) alongside the live ones, so CI can publish the
// exception count next to the failures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"abivm/internal/lint"
	"abivm/internal/lint/maporder"
	"abivm/internal/lint/mutexheld"
	"abivm/internal/lint/nondet"
)

var all = []*lint.Analyzer{
	maporder.Analyzer,
	nondet.Analyzer,
	mutexheld.Analyzer,
}

// report is the -json output shape: live findings fail the build,
// suppressed ones document the waived exceptions, and the counts give
// dashboards one number per analyzer.
type report struct {
	Findings   []lint.Finding `json:"findings"`
	Suppressed []lint.Finding `json:"suppressed"`
	Counts     counts         `json:"counts"`
}

type counts struct {
	Findings   int            `json:"findings"`
	Suppressed int            `json:"suppressed"`
	ByAnalyzer map[string]int `json:"byAnalyzer"`
}

func main() {
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings and suppression counts as JSON")
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	modRoot, err := lint.FindModRoot()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(modRoot)
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}
	findings, suppressed, err := lint.RunAll(pkgs, all)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		rep := report{
			Findings:   findings,
			Suppressed: suppressed,
			Counts: counts{
				Findings:   len(findings),
				Suppressed: len(suppressed),
				ByAnalyzer: map[string]int{},
			},
		}
		if rep.Findings == nil {
			rep.Findings = []lint.Finding{}
		}
		if rep.Suppressed == nil {
			rep.Suppressed = []lint.Finding{}
		}
		for _, f := range findings {
			rep.Counts.ByAnalyzer[f.Analyzer]++
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "abivmlint: %d finding(s), %d suppressed\n", len(findings), len(suppressed))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "abivmlint:", err)
	os.Exit(2)
}
