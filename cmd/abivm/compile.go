package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"abivm/internal/pubsub"
	"abivm/internal/viewc"
)

// runCompile implements `abivm compile`: the SQL→IVM compiler over the
// demo stations/sales database. It compiles either a views.sql catalog
// or a single query given as the positional argument, prints the EXPLAIN
// IVM report (or JSON with -json) per view, and exits nonzero if any
// view fails to compile — the diagnostics name the view and the byte
// position of the offending construct.
//
//	abivm compile -catalog examples/views.sql
//	abivm compile -fit piecewise -json 'SELECT s.salekey FROM sales AS s'
//	abivm compile -dataflow 'SELECT st.region, COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region'
func runCompile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ContinueOnError)
	catalog := fs.String("catalog", "", "compile every view of this views.sql catalog")
	fit := fs.String("fit", "linear", "cost-function fit: linear or piecewise")
	seed := fs.Int64("seed", 1, "calibration seed")
	jsonOut := fs.Bool("json", false, "emit JSON instead of the EXPLAIN IVM report")
	dataflow := fs.Bool("dataflow", false, "target the shared delta-dataflow runtime: the report gains the canonical operator signatures the view would intern into the shared graph and the join-input arrangements under them")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := pubsub.DemoDB(pubsub.DefaultWorkloadSpec())
	if err != nil {
		return err
	}
	opts := viewc.Options{Fit: *fit, Seed: *seed, Dataflow: *dataflow}

	var views []*viewc.CompiledView
	var compileErr error
	switch {
	case *catalog != "":
		src, err := os.ReadFile(*catalog)
		if err != nil {
			return err
		}
		views, compileErr = viewc.CompileCatalog(db, string(src), opts)
	case fs.NArg() == 1:
		var cv *viewc.CompiledView
		cv, compileErr = viewc.Compile(db, fs.Arg(0), opts)
		if cv != nil {
			views = append(views, cv)
		}
	default:
		return fmt.Errorf("compile: need -catalog FILE or exactly one query argument")
	}

	for i, cv := range views {
		if *jsonOut {
			if err := printCompiledJSON(cv); err != nil {
				return err
			}
			continue
		}
		if i > 0 {
			fmt.Println()
		}
		report, err := cv.Explain()
		if err != nil {
			return err
		}
		fmt.Print(report)
	}
	if compileErr != nil {
		return compileErr
	}
	return nil
}

// printCompiledJSON emits one compiled view as a JSON object per line.
func printCompiledJSON(cv *viewc.CompiledView) error {
	type calDTO struct {
		Alias     string    `json:"alias"`
		Table     string    `json:"table"`
		Func      string    `json:"func"`
		K         []int     `json:"k"`
		Cost      []float64 `json:"cost"`
		Residuals []float64 `json:"residuals"`
	}
	dto := struct {
		Name        string   `json:"name"`
		QoS         float64  `json:"qos"`
		Query       string   `json:"query"`
		Delta       string   `json:"delta"`
		Aggregate   bool     `json:"aggregate"`
		Fit         string   `json:"fit"`
		Seed        int64    `json:"seed"`
		Calibration []calDTO `json:"calibration"`
	}{
		Name: cv.Name, QoS: cv.QoS, Query: cv.Query,
		Delta: cv.Plan.Delta.String(), Aggregate: cv.Plan.Aggregate,
		Fit: cv.Fit, Seed: cv.Seed,
	}
	for _, cal := range cv.Calibrations {
		dto.Calibration = append(dto.Calibration, calDTO{
			Alias: cal.Alias, Table: cal.Table, Func: cal.FuncString(),
			K: cal.Measurement.K, Cost: cal.Measurement.Cost, Residuals: cal.Residuals,
		})
	}
	out, err := json.Marshal(dto)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
