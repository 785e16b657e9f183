package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Row statuses of compare.
const (
	statusOK         = "ok"
	statusRegressed  = "regressed"
	statusImproved   = "improved"
	statusUnresolved = "unresolved"
)

// compareRow is one (workload, end-to-end metric) pairing of two records.
type compareRow struct {
	workload, metric, unit string
	a, b                   float64 // medians over each record's runs
	delta                  float64 // (b-a)/a; positive is worse
	bound                  float64
	spread                 float64 // widest run-to-run spread of either side
	status                 string
}

func loadRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// values collects one end-to-end metric over a record's untraced runs of
// one workload.
func (rec *record) values(workload, name string) []float64 {
	var xs []float64
	for _, r := range rec.Runs {
		if r.Workload == workload && !r.Trace {
			if m, ok := r.Metrics[name]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// classify applies the benchmark's rule: worse than the bound is a
// regression, better than the bound an improvement; a spread wider than
// the bound makes either verdict unresolved, never "unchanged".
func classify(d metricDef, a, b []float64) compareRow {
	row := compareRow{metric: d.Name, unit: d.Unit, bound: d.Bound, spread: math.Max(spread(a), spread(b)), a: median(a), b: median(b)}
	if row.a != 0 {
		row.delta = (row.b - row.a) / row.a
		if d.Better == "higher" {
			row.delta = -row.delta
		}
	}
	switch {
	case row.spread > d.Bound:
		row.status = statusUnresolved
	case row.delta > d.Bound:
		row.status = statusRegressed
	case row.delta < -d.Bound:
		row.status = statusImproved
	default:
		row.status = statusOK
	}
	return row
}

// compareRecords builds every row; a workload or metric missing from
// either side is unresolved.
func compareRecords(a, b *record) []compareRow {
	var rows []compareRow
	for _, w := range workloads {
		for _, d := range endToEnd {
			av, bv := a.values(w.name, d.Name), b.values(w.name, d.Name)
			row := compareRow{metric: d.Name, unit: d.Unit, bound: d.Bound, status: statusUnresolved}
			if len(av) > 0 && len(bv) > 0 {
				row = classify(d, av, bv)
			}
			row.workload = w.name
			rows = append(rows, row)
		}
	}
	return rows
}

func printRows(w io.Writer, rows []compareRow) {
	fmt.Fprintf(w, "%-15s %-20s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "spread", "status")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %-20s %14.4f %14.4f %8.2f%% %6.1f%% %6.2f%%  %s\n",
			r.workload, r.metric, r.a, r.b, 100*r.delta, 100*r.bound, 100*r.spread, r.status)
	}
}

// compareMain implements `benchmark compare A.json B.json`: exit 1 when
// any row regressed, 0 otherwise (unresolved rows are printed, not
// fatal: they ask for more runs, not for a revert).
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := loadRecord(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	b, err := loadRecord(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	fmt.Printf("A: %s commit=%s seconds=%d   B: %s commit=%s seconds=%d\n",
		args[0], a.Env.Commit, a.Env.Seconds, args[1], b.Env.Commit, b.Env.Seconds)
	rows := compareRecords(a, b)
	printRows(os.Stdout, rows)
	counts := map[string]int{}
	for _, r := range rows {
		counts[r.status]++
	}
	fmt.Printf("%d ok, %d improved, %d regressed, %d unresolved\n",
		counts[statusOK], counts[statusImproved], counts[statusRegressed], counts[statusUnresolved])
	if counts[statusRegressed] > 0 {
		return 1
	}
	return 0
}
