// Warehouse: the paper's own evaluation scenario, end to end. A TPC-R
// style warehouse maintains the MIN supply-cost view over a four-way
// join under a response-time constraint. The example
//
//  1. generates the TPC-R data,
//  2. calibrates the per-table cost functions by measuring real update
//     batches through the broker's measurement probe (internal/costmodel),
//  3. fits linear cost functions and prints them,
//  4. runs NAIVE, ONLINE, ONLINE-M and ADAPT (wrapping an optimal LGM
//     plan from the A* planner) over the same update stream, and
//  5. reports total maintenance cost per policy and verifies every
//     policy kept the refresh guarantee.
package main

import (
	"fmt"
	"log"

	"abivm"
	"abivm/internal/astar"
	"abivm/internal/core"
	"abivm/internal/costfn"
	"abivm/internal/costmodel"
	"abivm/internal/policy"
	"abivm/internal/pubsub"
	"abivm/internal/storage"
	"abivm/internal/tpcr"
)

func main() {
	cfg := tpcr.Config{ScaleFactor: 0.005, Seed: 1, SupplierSuppkeyIndex: true}

	// --- calibrate on a scratch copy of the warehouse ---------------
	scratch := storage.NewDB()
	if err := tpcr.Generate(scratch, cfg); err != nil {
		log.Fatal(err)
	}
	probe, err := pubsub.NewProbe(scratch, tpcr.PaperView)
	if err != nil {
		log.Fatal(err)
	}
	gen := tpcr.NewUpdateGen(scratch, cfg, 7)
	w := storage.DefaultWeights()
	ks := []int{1, 5, 10, 20, 40, 80, 120}
	psMeas, err := costmodel.Measure(probe, "PS", gen.PartSuppUpdate, ks, w)
	if err != nil {
		log.Fatal(err)
	}
	sMeas, err := costmodel.Measure(probe, "S", gen.SupplierUpdate, ks, w)
	if err != nil {
		log.Fatal(err)
	}
	fPS, err := psMeas.FitLinear()
	if err != nil {
		log.Fatal(err)
	}
	fS, err := sMeas.FitLinear()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated: f_PS(k) = %.4f*k + %.2f   f_S(k) = %.4f*k + %.2f (pseudo-ms)\n",
		fPS.A, fPS.B, fS.A, fS.B)

	// Nation and Region never change in this workload; give them nominal
	// linear costs so the model covers all four aliases.
	fNominal, err := costfn.NewLinear(0.01, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	model := core.NewCostModel(fPS, fS, fNominal, fNominal)
	c := model.Total(core.Vector{80, 80, 0, 0})
	fmt.Printf("response-time constraint C = %.2f pseudo-ms\n\n", c)

	// --- precompute the ADAPT plan for an estimated refresh time ----
	const tEstimate = 400
	planArr := make(core.Arrivals, tEstimate+1)
	for t := range planArr {
		planArr[t] = core.Vector{1, 1, 0, 0}
	}
	planIn, err := core.NewInstance(planArr, model, c)
	if err != nil {
		log.Fatal(err)
	}
	optRes, err := astar.Search(planIn, astar.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("A* found the optimal LGM plan for T0=%d: cost %.1f, %d nodes expanded\n\n",
		tEstimate, optRes.Cost, optRes.Expanded)

	// --- race the policies over the same stream ---------------------
	const horizon = 600 // actual refresh comes later than estimated
	type entry struct {
		name string
		opts []abivm.Option
	}
	entries := []entry{
		{"NAIVE", []abivm.Option{abivm.WithPolicy(abivm.PolicyNaive)}},
		{"ONLINE", []abivm.Option{abivm.WithPolicy(abivm.PolicyOnline)}},
		{"ONLINE-M", []abivm.Option{abivm.WithPolicy(abivm.PolicyOnlineMarginal)}},
		{"ADAPT", []abivm.Option{abivm.WithCustomPolicy(policy.NewAdapt(model, c, optRes.Plan))}},
	}
	fmt.Printf("%-9s %14s %14s\n", "policy", "total cost", "final refresh")
	for _, e := range entries {
		db := storage.NewDB()
		if err := tpcr.Generate(db, cfg); err != nil {
			log.Fatal(err)
		}
		opts := append([]abivm.Option{abivm.WithConstraint(model, c)}, e.opts...)
		v, err := abivm.NewView(db, tpcr.PaperView, opts...)
		if err != nil {
			log.Fatal(err)
		}
		streamGen := tpcr.NewUpdateGen(db, cfg, 7)
		for step := 0; step < horizon; step++ {
			if err := v.Apply(streamGen.PartSuppUpdate(), streamGen.SupplierUpdate()); err != nil {
				log.Fatal(err)
			}
			if _, _, err := v.EndStep(); err != nil {
				log.Fatal(err)
			}
			if rc := v.RefreshCost(); rc > c {
				log.Fatalf("%s violated the constraint at step %d: %.2f > %.2f", e.name, step, rc, c)
			}
		}
		_, refreshCost, err := v.Refresh()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %14.1f %14.2f\n", e.name, v.TotalCost(), refreshCost)
	}
}
