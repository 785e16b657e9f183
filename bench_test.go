package abivm

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (one benchmark per figure) and runs the ablation
// benches for the design choices called out in DESIGN.md. Figures run in
// quick mode inside the benchmark loop so `go test -bench=.` stays
// tractable; run `cmd/abivm all` for the full-resolution tables.

import (
	"testing"

	"abivm/internal/arrivals"
	"abivm/internal/astar"
	"abivm/internal/core"
	"abivm/internal/costfn"
	"abivm/internal/costmodel"
	"abivm/internal/experiments"
	"abivm/internal/ivm"
	"abivm/internal/obs"
	"abivm/internal/policy"
	"abivm/internal/sim"
	"abivm/internal/storage"
	"abivm/internal/tpcr"
)

func benchCfg() experiments.Config {
	return experiments.Config{Scale: 0.002, Seed: 1, Quick: true}
}

// --- one benchmark per paper table/figure ---------------------------

// BenchmarkFig1CostFunctions regenerates Figure 1 (two-way join cost
// curves, indexed vs unindexed side).
func BenchmarkFig1CostFunctions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4ViewCostFunctions regenerates Figure 4 (four-way MIN view
// cost curves).
func BenchmarkFig4ViewCostFunctions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Validation regenerates Figure 5 (simulated vs actual plan
// cost).
func BenchmarkFig5Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			worst := 0.0
			for _, d := range res.DiffPct {
				if d > worst {
					worst = d
				}
			}
			b.ReportMetric(worst, "worst-diff-%")
		}
	}
}

// BenchmarkFig6VaryRefresh regenerates Figure 6 (cost vs refresh time,
// four policies).
func BenchmarkFig6VaryRefresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var naive, opt float64
			for j := range res.RefreshTimes {
				naive += res.Naive[j]
				opt += res.OptLGM[j]
			}
			b.ReportMetric(naive/opt, "naive/opt")
		}
	}
}

// BenchmarkFig6Observed reruns the Figure 6 sweep with a live metrics
// registry attached (experiments.Config.Obs non-nil), so the recorded
// history carries both sides of the instrumentation-overhead claim:
// BenchmarkFig6VaryRefresh is the detached (benched) configuration and
// must stay within ~3% of the committed baseline; this bench is the
// attached cost, the price of actually scraping.
func BenchmarkFig6Observed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Obs = obs.NewRegistry()
		if _, err := experiments.Fig6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7NonUniform regenerates Figure 7 (non-uniform streams).
func BenchmarkFig7NonUniform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var online, opt float64
			for j := range res.Streams {
				online += res.Online[j]
				opt += res.OptLGM[j]
			}
			b.ReportMetric(online/opt, "online/opt")
		}
	}
}

// BenchmarkTightness regenerates the Section 3.2 tightness example.
func BenchmarkTightness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Tightness(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Ratio[len(res.Ratio)-1], "lgm/opt")
		}
	}
}

// BenchmarkConcaveStudy regenerates the Section 7 future-work study
// (OPT_LGM/OPT by cost-function family).
func BenchmarkConcaveStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ConcaveStudy(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.WorstGap[1], "concave-worst-gap")
		}
	}
}

// BenchmarkStagedBatching regenerates the operator-level staging study
// (future work, Section 7 item 3).
func BenchmarkStagedBatching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Staged(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Gain[0], "tight-C-gain")
		}
	}
}

// BenchmarkPolicySuite regenerates the policy-comparison summary table.
func BenchmarkPolicySuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Policies(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for j, name := range res.Names {
				if name == "ONLINE-M" {
					b.ReportMetric(res.OverOpt[j], "online-m/opt")
				}
			}
		}
	}
}

// --- ablation benches ------------------------------------------------

// benchInstance builds the standard linear-cost instance used by the
// ablations: a uniform 1+1 stream with the Figure-4-shaped asymmetry.
func benchInstance(b *testing.B, steps int) *core.Instance {
	b.Helper()
	fPS, err := costfn.NewLinear(0.03, 2.5)
	if err != nil {
		b.Fatal(err)
	}
	fS, err := costfn.NewLinear(0.09, 20)
	if err != nil {
		b.Fatal(err)
	}
	model := core.NewCostModel(fPS, fS)
	seq := arrivals.UniformSequence(steps, 1, 1)
	in, err := core.NewInstance(seq, model, model.Total(core.Vector{80, 80}))
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkAStarHeuristicAblation compares the informed A* against plain
// Dijkstra on the same instance, reporting the node-expansion ratio.
func BenchmarkAStarHeuristicAblation(b *testing.B) {
	in := benchInstance(b, 1000)
	b.Run("astar", func(b *testing.B) {
		var expanded int
		for i := 0; i < b.N; i++ {
			res, err := astar.Search(in, astar.Options{})
			if err != nil {
				b.Fatal(err)
			}
			expanded = res.Expanded
		}
		b.ReportMetric(float64(expanded), "nodes")
	})
	b.Run("dijkstra", func(b *testing.B) {
		var expanded int
		for i := 0; i < b.N; i++ {
			res, err := astar.Search(in, astar.Options{DisableHeuristic: true})
			if err != nil {
				b.Fatal(err)
			}
			expanded = res.Expanded
		}
		b.ReportMetric(float64(expanded), "nodes")
	})
}

// BenchmarkMinimalityAblation compares minimal-action search (LGM) with
// the larger lazy-greedy space (minimality off): plan quality vs search
// effort.
func BenchmarkMinimalityAblation(b *testing.B) {
	in := benchInstance(b, 400)
	b.Run("minimal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := astar.Search(in, astar.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(res.Cost, "plan-cost")
				b.ReportMetric(float64(res.Expanded), "nodes")
			}
		}
	})
	b.Run("non-minimal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := astar.Search(in, astar.Options{AllowNonMinimal: true})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(res.Cost, "plan-cost")
				b.ReportMetric(float64(res.Expanded), "nodes")
			}
		}
	})
}

// BenchmarkOnlineTTFAblation compares ONLINE with its EWMA rate estimator
// against an oracle that knows the exact arrival rates, isolating the
// cost of TimeToFull estimation error on a bursty stream.
func BenchmarkOnlineTTFAblation(b *testing.B) {
	fPS, _ := costfn.NewLinear(0.03, 2.5)
	fS, _ := costfn.NewLinear(0.09, 20)
	model := core.NewCostModel(fPS, fS)
	c := model.Total(core.Vector{80, 80})
	seq := arrivals.Sequence(800,
		arrivals.NewBursty(0, 3, 40, 10, 7),
		arrivals.NewBursty(0, 3, 40, 10, 8),
	)
	in, err := core.NewInstance(seq, model, c)
	if err != nil {
		b.Fatal(err)
	}
	// Long-run average rate of the bursty stream: 3 * 10/(40+10).
	oracle := policy.FixedRates{0.6, 0.6}
	b.Run("ewma", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(in, policy.NewOnline(in.Model, in.C, policy.NewEWMA(0.2)), sim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(res.TotalCost, "plan-cost")
			}
		}
	})
	b.Run("oracle-rates", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(in, policy.NewOnline(in.Model, in.C, oracle), sim.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(res.TotalCost, "plan-cost")
			}
		}
	})
}

// BenchmarkReplanningAblation races the prescient ADAPT (plan computed
// from the true arrival sequence), the replanning ADAPT-RP (plans from
// estimated rates), and ONLINE-M on one instance: how much is perfect
// foresight worth?
func BenchmarkReplanningAblation(b *testing.B) {
	in := benchInstance(b, 600)
	optPlan, err := astar.Search(in, astar.Options{})
	if err != nil {
		b.Fatal(err)
	}
	entries := []struct {
		name string
		pol  policy.Policy
	}{
		{"adapt-prescient", policy.NewAdapt(in.Model, in.C, optPlan.Plan)},
		{"adapt-replan", policy.NewAdaptReplan(in.Model, in.C, 100, nil)},
		{"online-marginal", policy.NewOnlineMarginal(in.Model, in.C, nil)},
	}
	for _, e := range entries {
		b.Run(e.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(in, e.pol, sim.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.TotalCost, "plan-cost")
				}
			}
		})
	}
}

// BenchmarkIndexAsymmetry measures the engine-level source of the whole
// paper: the cost of one 20-modification batch on the indexed join side
// vs the unindexed one. The -10x runs repeat both over ten times the
// rows: the indexed side's cost stays put (a_i·k), the unindexed side's
// grows with the table (b_i is one scan of it per hash-join run).
func BenchmarkIndexAsymmetry(b *testing.B) {
	w := storage.DefaultWeights()
	run := func(b *testing.B, alias string, scale float64) {
		cfg := tpcr.Config{ScaleFactor: scale, Seed: 1, SupplierSuppkeyIndex: true}
		db := storage.NewDB()
		if err := tpcr.Generate(db, cfg); err != nil {
			b.Fatal(err)
		}
		m, err := ivm.New(db, tpcr.PaperView)
		if err != nil {
			b.Fatal(err)
		}
		gen := tpcr.NewUpdateGen(db, cfg, 5)
		mk := gen.PartSuppUpdate
		if alias == "S" {
			mk = gen.SupplierUpdate
		}
		b.ResetTimer()
		cost := 0.0
		for i := 0; i < b.N; i++ {
			for j := 0; j < 20; j++ {
				if err := m.Apply(mk()); err != nil {
					b.Fatal(err)
				}
			}
			before := *m.Stats()
			if err := m.ProcessBatch(alias, 20); err != nil {
				b.Fatal(err)
			}
			cost = w.Cost(m.Stats().Sub(before))
		}
		b.ReportMetric(cost, "pseudo-ms/batch")
	}
	b.Run("indexed-PS", func(b *testing.B) { run(b, "PS", 0.002) })
	b.Run("unindexed-S", func(b *testing.B) { run(b, "S", 0.002) })
	b.Run("indexed-PS-10x", func(b *testing.B) { run(b, "PS", 0.02) })
	b.Run("unindexed-S-10x", func(b *testing.B) { run(b, "S", 0.02) })
}

// --- micro-benchmarks on the core algorithms -------------------------

// BenchmarkAStarSearch measures planning throughput on the standard
// instance.
func BenchmarkAStarSearch(b *testing.B) {
	in := benchInstance(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := astar.Search(in, astar.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlinePolicyRun measures the ONLINE policy simulating a
// 1000-step stream.
func BenchmarkOnlinePolicyRun(b *testing.B) {
	in := benchInstance(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(in, policy.NewOnline(in.Model, in.C, nil), sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostModelCalibration measures a full calibration pass.
func BenchmarkCostModelCalibration(b *testing.B) {
	cfg := tpcr.Config{ScaleFactor: 0.002, Seed: 1, SupplierSuppkeyIndex: true}
	for i := 0; i < b.N; i++ {
		db := storage.NewDB()
		if err := tpcr.Generate(db, cfg); err != nil {
			b.Fatal(err)
		}
		m, err := ivm.New(db, tpcr.PaperView)
		if err != nil {
			b.Fatal(err)
		}
		gen := tpcr.NewUpdateGen(db, cfg, 5)
		ms, err := costmodel.Measure(m, "PS", gen.PartSuppUpdate, []int{1, 5, 10, 20}, storage.DefaultWeights())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ms.FitLinear(); err != nil {
			b.Fatal(err)
		}
	}
}
