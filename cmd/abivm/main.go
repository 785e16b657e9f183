// Command abivm runs the paper-reproduction experiments of the
// asymmetric batch incremental view maintenance library and prints the
// tables corresponding to the paper's figures.
//
// Usage:
//
//	abivm [flags] fig1|fig4|fig5|fig6|fig7|tight|concave|staged|policies|ablations|all
//
// Flags:
//
//	-scale   TPC-R scale factor (default 0.005)
//	-seed    random seed (default 1)
//	-quick   shrink sweeps/horizons for a fast smoke run
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"

	"abivm/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 0.005, "TPC-R scale factor")
	seed := flag.Int64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "reduced sweeps for a fast smoke run")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: abivm [flags] fig1|fig4|fig5|fig6|fig7|tight|concave|staged|policies|ablations|all\n")
		fmt.Fprintf(os.Stderr, "       abivm explain [query]\n")
		fmt.Fprintf(os.Stderr, "       abivm sim [-costs a:b,..] [-rates r,..] [-C x] [-T n]\n")
		fmt.Fprintf(os.Stderr, "       abivm chaos [-seed n] [-runs k] [-steps t]\n")
		fmt.Fprintf(os.Stderr, "       abivm serve [-addr host:port] [-seed n] [-interval d] [-faults] [-pprof] [-catalog views.sql]\n")
		fmt.Fprintf(os.Stderr, "       abivm compile [-catalog views.sql] [-fit linear|piecewise] [-seed n] [-json] [query]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	switch flag.Arg(0) {
	case "explain":
		if err := runExplain(*scale, *seed, flag.Args()[1:]); err != nil {
			fail(err)
		}
		return
	case "sim":
		if err := runSim(os.Stdout, flag.Args()[1:]); err != nil {
			fail(err)
		}
		return
	case "chaos":
		runInterruptible(runChaos)
		return
	case "serve":
		runInterruptible(runServe)
		return
	case "compile":
		if err := runCompile(flag.Args()[1:]); err != nil {
			fail(err)
		}
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed, Quick: *quick}

	cmd := flag.Arg(0)
	if cmd == "all" {
		if err := experiments.All(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "abivm:", err)
			os.Exit(1)
		}
		return
	}
	i := slices.IndexFunc(experiments.Experiments, func(e experiments.Experiment) bool { return e.Name == cmd })
	if i < 0 {
		flag.Usage()
		os.Exit(2)
	}
	tbl, err := experiments.Experiments[i].Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "abivm:", err)
		os.Exit(1)
	}
	tbl.Render(os.Stdout)
}

// runInterruptible runs one of the two commands that read the interrupt:
// chaos stops between runs and serve shuts its server down. Every other
// command keeps Go's default and dies at Ctrl-C.
func runInterruptible(run func(context.Context, []string) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, flag.Args()[1:]); err != nil {
		fail(err)
	}
}
