// Package experiments regenerates every figure of the paper's evaluation
// (Section 5) plus the Section 3.2 tightness example, on the from-scratch
// engine:
//
//	Fig. 1 — cost functions of a two-way join view (indexed vs not)
//	Fig. 4 — cost functions of the four-way MIN view over TPC-R
//	Fig. 5 — simulated vs actual plan costs (validation)
//	Fig. 6 — total cost vs refresh time for NAIVE/OPT-LGM/ADAPT/ONLINE
//	Fig. 7 — non-uniform arrival streams (SS/SU/FS/FU)
//	Tightness — OPT_LGM / OPT approaching 2 on the step-cost instance
//	Ablations — the design choices of DESIGN.md §4, in counted work
//
// Absolute numbers are pseudo-milliseconds of engine work units, not the
// paper's wall-clock seconds; the comparisons the paper draws (who wins,
// by what factor, where curves cross) are what these experiments
// reproduce.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"abivm/internal/costmodel"
	"abivm/internal/pubsub"
	"abivm/internal/storage"
	"abivm/internal/tpcr"
)

// Config parameterizes the experiment suite.
type Config struct {
	// Scale is the TPC-R scale factor (default 0.005: 50 suppliers, 4000
	// partsupp rows, preserving the paper's 80:1 ratio).
	Scale float64
	// Seed drives data generation and update streams.
	Seed int64
	// Quick shrinks sweeps and horizons for use in tests; the shapes are
	// preserved, the resolution is reduced.
	Quick bool
	// Context, when non-nil, cancels in-flight sweeps: workers stop
	// picking up tasks and the experiment returns the context's error.
	// nil means run to completion.
	Context context.Context
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config { return Config{Scale: 0.005, Seed: 1} }

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render prints the table in aligned text form.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title)))
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// f2 formats a float at 2 decimals, f4 at 4, fmt1 an int.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func fmt1(k int) string   { return fmt.Sprintf("%d", k) }

// setupView generates a TPC-R database with the given index configuration
// and wraps the view in a measurement probe plus update generator.
func setupView(cfg Config, view string, supplierIdx, partsuppIdx bool) (*pubsub.Probe, *tpcr.UpdateGen, error) {
	tcfg := tpcr.Config{
		ScaleFactor:          cfg.Scale,
		Seed:                 cfg.Seed,
		SupplierSuppkeyIndex: supplierIdx,
		PartSuppSuppkeyIndex: partsuppIdx,
	}
	db := storage.NewDB()
	if err := tpcr.Generate(db, tcfg); err != nil {
		return nil, nil, err
	}
	p, err := pubsub.NewProbe(db, view)
	if err != nil {
		return nil, nil, err
	}
	return p, tpcr.NewUpdateGen(db, tcfg, cfg.Seed+100), nil
}

// measurePair measures the PS and S batch-cost curves of a maintained
// view over the given batch sizes.
func measurePair(p *pubsub.Probe, gen *tpcr.UpdateGen, ks []int) (ps, s *costmodel.Measurement, err error) {
	w := storage.DefaultWeights()
	ps, err = costmodel.Measure(p, "PS", gen.PartSuppUpdate, ks, w)
	if err != nil {
		return nil, nil, err
	}
	s, err = costmodel.Measure(p, "S", gen.SupplierUpdate, ks, w)
	if err != nil {
		return nil, nil, err
	}
	return ps, s, nil
}

// batchSweep returns the batch-size sweep for cost-function figures.
func batchSweep(quick bool) []int {
	if quick {
		return []int{1, 5, 10, 25, 50}
	}
	return []int{1, 10, 25, 50, 100, 150, 200, 300, 400, 500, 750, 1000}
}

// All runs every experiment and renders the tables to w.
func All(cfg Config, w io.Writer) error {
	type namedRun struct {
		name string
		run  func(Config) (*Table, error)
	}
	runs := []namedRun{
		{"fig1", Fig1Table},
		{"fig4", Fig4Table},
		{"fig5", Fig5Table},
		{"fig6", Fig6Table},
		{"fig7", Fig7Table},
		{"tight", TightnessTable},
		{"concave", ConcaveStudyTable},
		{"staged", StagedTable},
		{"policies", PoliciesTable},
		{"ablations", AblationsTable},
	}
	for _, r := range runs {
		tbl, err := r.run(cfg)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", r.name, err)
		}
		tbl.Render(w)
	}
	return nil
}
