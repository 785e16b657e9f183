package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"abivm/internal/arrivals"
	"abivm/internal/astar"
	"abivm/internal/core"
	"abivm/internal/costfn"
	"abivm/internal/plan"
	"abivm/internal/policy"
	"abivm/internal/sim"
	"abivm/internal/sql"
	"abivm/internal/storage"
	"abivm/internal/tpcr"
)

// runSim implements `abivm sim`: a self-contained planner/simulator for
// user-specified linear cost functions, arrival rates, constraint and
// horizon. It compares NAIVE, PERIODIC, ONLINE, ONLINE-M, and OPT-LGM.
//
//	abivm sim -costs 0.03:2.5,0.09:20 -rates 1,1 -C 30 -T 1000
func runSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	costsFlag := fs.String("costs", "0.03:2.5,0.09:20", "per-table linear costs a:b, comma separated")
	ratesFlag := fs.String("rates", "1,1", "per-table arrival rates (modifications per step)")
	cFlag := fs.Float64("C", 30, "response-time constraint")
	tFlag := fs.Int("T", 1000, "refresh time (steps)")
	period := fs.Int("period", 50, "PERIODIC policy flush period")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *period < 1 {
		return fmt.Errorf("-period %d: want a flush period of at least 1 step", *period)
	}
	if *tFlag < 0 {
		return fmt.Errorf("-T %d: want a refresh time of at least 0 steps", *tFlag)
	}

	var funcs []core.CostFunc
	for _, spec := range strings.Split(*costsFlag, ",") {
		parts := strings.Split(spec, ":")
		if len(parts) != 2 {
			return fmt.Errorf("bad cost spec %q (want a:b)", spec)
		}
		a, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return err
		}
		b, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return err
		}
		f, err := costfn.NewLinear(a, b)
		if err != nil {
			return err
		}
		funcs = append(funcs, f)
	}
	var rates []int
	for _, r := range strings.Split(*ratesFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(r))
		if err != nil {
			return err
		}
		rates = append(rates, v)
	}
	if len(rates) != len(funcs) {
		return fmt.Errorf("%d rates for %d cost functions", len(rates), len(funcs))
	}

	model := core.NewCostModel(funcs...)
	seq := arrivals.UniformSequence(*tFlag+1, rates...)
	in, err := core.NewInstance(seq, model, *cFlag)
	if err != nil {
		return err
	}

	fmt.Printf("%d tables, C=%.4g, T=%d, rates=%v\n\n", model.N(), *cFlag, *tFlag, rates)
	fmt.Printf("%-10s %14s %10s\n", "policy", "total cost", "actions")
	report := func(name string, cost float64, actions int) {
		fmt.Printf("%-10s %14.2f %10d\n", name, cost, actions)
	}

	for _, pol := range []policy.Policy{
		policy.NewNaive(model, *cFlag),
		policy.NewPeriodic(model, *cFlag, *period),
		policy.NewOnline(model, *cFlag, nil),
		policy.NewOnlineMarginal(model, *cFlag, nil),
	} {
		res, err := sim.Run(in, pol)
		if err != nil {
			return err
		}
		report(res.Policy, res.TotalCost, res.Actions)
	}
	opt, err := astar.Search(in, astar.Options{})
	if err != nil {
		return err
	}
	actions := 0
	for _, a := range opt.Plan {
		if !a.IsZero() {
			actions++
		}
	}
	report("OPT-LGM", opt.Cost, actions)
	fmt.Printf("\nA*: %d nodes expanded, %d generated\n", opt.Expanded, opt.Generated)
	return nil
}

// runExplain implements `abivm explain [query]`: it generates the TPC-R
// data and prints the physical plan the engine picks for the query (the
// paper's view by default).
func runExplain(scale float64, seed int64, args []string) error {
	query := tpcr.PaperView
	if len(args) > 0 {
		query = strings.Join(args, " ")
	}
	db := storage.NewDB()
	cfg := tpcr.Config{ScaleFactor: scale, Seed: seed, SupplierSuppkeyIndex: true}
	if err := tpcr.Generate(db, cfg); err != nil {
		return err
	}
	sel, err := sql.Parse(query)
	if err != nil {
		return err
	}
	op, err := plan.Compile(sel, db, nil)
	if err != nil {
		return err
	}
	fmt.Println(sel.String())
	fmt.Println()
	fmt.Print(plan.Explain(op))
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "abivm:", err)
	os.Exit(1)
}
