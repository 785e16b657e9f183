package abivm

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (one benchmark per figure) and runs the ablation
// benches for the design choices called out in DESIGN.md. Figures run in
// quick mode inside the benchmark loop so `go test -bench=.` stays
// tractable; run `cmd/abivm all` for the full-resolution tables.

import (
	"fmt"
	"testing"
	"time"

	"abivm/internal/arrivals"
	"abivm/internal/astar"
	"abivm/internal/core"
	"abivm/internal/costfn"
	"abivm/internal/costmodel"
	"abivm/internal/durable"
	"abivm/internal/experiments"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/obs"
	"abivm/internal/policy"
	"abivm/internal/pubsub"
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

// BenchmarkShardedStep measures broker step throughput on the sharded
// runtime at 1/4/8 shards over one fixed 16-subscription workload where
// every subscription fully refreshes each step. Drains suffer injected
// transient failures whose retry backoff sleeps real wall-clock time
// (fixed 2ms, no jitter) — the benchmark's stand-in for the I/O stalls a
// persistent backend would impose. The speedup therefore comes from
// shard workers overlapping their stalls, which is exactly the
// concurrency the sharded runtime exists to exploit and the only kind
// available on a single-core runner; see EXPERIMENTS.md for the
// methodology note.
func BenchmarkShardedStep(b *testing.B) {
	const seed = 1
	spec := pubsub.ScaledWorkloadSpec(16)
	spec.NotifyEvery = 1
	rates := fault.Rates{DrainPlan: 0.8}
	pol := pubsub.DefaultRetryPolicy()
	pol.BaseDelay = 2 * time.Millisecond
	pol.MaxDelay = 2 * time.Millisecond
	pol.Jitter = 0
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			w, err := pubsub.NewShardedDemoWorkload(seed, shards, spec,
				pubsub.SeededShardInjectors(seed, rates))
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			w.Broker.SetRetryPolicy(pol)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
		})
	}
}

// BenchmarkCheckpointHeavy measures one broker step in the most
// checkpoint-bound configuration the runtime supports: an 8-subscription
// workload (each subscription replicating the full stations+sales base
// state) checkpointing after EVERY step. Before incremental
// checkpointing each op re-serialized eight full replica snapshots; with
// it each op writes eight delta segments covering only the step's
// changed rows. allocs/op is reported because the checkpoint path is the
// durability hot path's dominant allocator.
func BenchmarkCheckpointHeavy(b *testing.B) {
	w, err := pubsub.NewDemoWorkloadSpec(1, pubsub.ScaledWorkloadSpec(8), nil)
	if err != nil {
		b.Fatal(err)
	}
	w.Broker.SetCheckpointEvery(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChainRollover measures the one checkpoint in every
// DefaultChainDepth+1 that replaces the chain with a fresh base: a
// three-column replica of 1k/10k/100k rows, 128 dirty keys per
// checkpoint. Only that checkpoint is timed; the delta checkpoints and
// the drains between rollovers run with the timer stopped. It is the
// O(table) term of the checkpoint path: ns/op and B/op scale with rows
// (the benchmark records how steeply), allocs/op must not.
func BenchmarkChainRollover(b *testing.B) {
	const dirtyKeys = 128
	for _, rows := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			db := storage.NewDB()
			schema, err := storage.NewSchema("sales", []storage.Column{
				{Name: "salekey", Type: storage.TInt},
				{Name: "station", Type: storage.TString},
				{Name: "amount", Type: storage.TFloat},
			}, "salekey")
			if err != nil {
				b.Fatal(err)
			}
			tbl, err := db.CreateTable(schema)
			if err != nil {
				b.Fatal(err)
			}
			station := func(k int) storage.Value { return storage.S(fmt.Sprintf("st%03d", k%100)) }
			for k := 0; k < rows; k++ {
				if err := tbl.Insert(storage.Row{storage.I(int64(k)), station(k), storage.F(float64(k % 500))}); err != nil {
					b.Fatal(err)
				}
			}
			m, err := ivm.New(db, `SELECT s.station, COUNT(*) AS n, SUM(s.amount) AS total FROM sales AS s GROUP BY s.station`)
			if err != nil {
				b.Fatal(err)
			}
			wal := ivm.NewWAL()
			m.AttachWAL(wal)
			chain := ivm.NewCheckpointChain(ivm.DefaultChainDepth)
			next := 0
			// dirty updates dirtyKeys distinct rows and drains them.
			dirty := func() {
				for j := 0; j < dirtyKeys; j++ {
					k := next % rows
					next += 7919 // a stride coprime to every size spreads the keys
					key := storage.I(int64(k))
					row := storage.Row{key, station(k), storage.F(float64((next + j) % 500))}
					if err := m.Apply(ivm.Update("s", []storage.Value{key}, row)); err != nil {
						b.Fatal(err)
					}
				}
				if err := m.ProcessBatch("s", dirtyKeys); err != nil {
					b.Fatal(err)
				}
			}
			checkpoint := func() {
				if err := chain.Checkpoint(m); err != nil {
					b.Fatal(err)
				}
				if err := wal.TruncateThrough(chain.TipLSN()); err != nil {
					b.Fatal(err)
				}
			}
			checkpoint() // the first base
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for d := 0; d < ivm.DefaultChainDepth; d++ {
					dirty()
					checkpoint()
				}
				dirty()
				b.StartTimer()
				checkpoint()
				if chain.Depth() != 0 {
					b.Fatalf("checkpoint %d did not replace the chain: depth %d", i, chain.Depth())
				}
			}
		})
	}
}

// BenchmarkDrainHotPath measures the fault-free publish→drain→notify
// step loop with periodic checkpoints disabled: pure hot-path work
// (routing, WAL appends, queue drains, refresh, notification fan-out)
// with every subscription refreshing every step. allocs/op is the
// headline number — the allocation-lean pass (queue recycling, pending
// scratch buffers, in-place step-vector reset) shows up here.
func BenchmarkDrainHotPath(b *testing.B) {
	spec := pubsub.ScaledWorkloadSpec(4)
	spec.NotifyEvery = 1
	w, err := pubsub.NewDemoWorkloadSpec(1, spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	w.Broker.SetCheckpointEvery(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALFileAppend measures the file-backed WAL hot path: one
// arrival record framed (length + CRC32C) into the append buffer and
// flushed to the on-disk segment — the worst-case sync-per-record
// discipline (the broker amortizes the flush over a full step; this
// pins the unamortized cost). Runs under bench-gate at a pinned
// iteration count: the current segment grows across iterations, so only
// fixed-count runs compare cleanly.
func BenchmarkWALFileAppend(b *testing.B) {
	fsys, err := durable.NewDirFS(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	st, err := durable.NewStore(fsys, "bench")
	if err != nil {
		b.Fatal(err)
	}
	wal := ivm.NewWAL()
	wal.SetSink(st)
	mod := ivm.Insert("PS", storage.Row{storage.I(1), storage.I(2), storage.F(3)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wal.Append(ivm.WALRecord{Kind: ivm.WALArrival, Mod: mod}); err != nil {
			b.Fatal(err)
		}
		if err := st.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiskRecovery measures corruption-hardened recovery from a
// realistic clean on-disk state: a base checkpoint, a depth-3 delta
// chain, and an uncheckpointed WAL suffix, all on real files. Each op
// validates every segment checksum, decodes the chain, rebuilds the
// maintainer, and replays the WAL tail — the crash-restart path end to
// end on recovery's fast rung.
func BenchmarkDiskRecovery(b *testing.B) {
	const depth = 3
	cfg := tpcr.Config{ScaleFactor: 0.002, Seed: 1, SupplierSuppkeyIndex: true}
	db := storage.NewDB()
	if err := tpcr.Generate(db, cfg); err != nil {
		b.Fatal(err)
	}
	fsys, err := durable.NewDirFS(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	st, err := durable.NewStore(fsys, "bench")
	if err != nil {
		b.Fatal(err)
	}
	m, err := ivm.New(db, tpcr.PaperView)
	if err != nil {
		b.Fatal(err)
	}
	m.SetNamespace("bench")
	wal := ivm.NewWAL()
	m.AttachWAL(wal)
	chain := ivm.NewCheckpointChain(depth)
	wal.SetSink(st)
	chain.SetStore(st)
	if err := chain.Checkpoint(m); err != nil {
		b.Fatal(err)
	}
	gen := tpcr.NewUpdateGen(db, cfg, 5)
	step := func(n int) {
		for j := 0; j < n; j++ {
			if err := m.Apply(gen.PartSuppUpdate()); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.ProcessBatch("PS", n); err != nil {
			b.Fatal(err)
		}
	}
	for r := 0; r < depth; r++ {
		step(25)
		if err := chain.Checkpoint(m); err != nil {
			b.Fatal(err)
		}
		if err := wal.TruncateThrough(chain.TipLSN()); err != nil {
			b.Fatal(err)
		}
	}
	step(25)
	if err := st.Sync(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := st.Recover(db, tpcr.PaperView, depth, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rec.Fallback {
			b.Fatal("unexpected full-refresh fallback recovering clean state")
		}
	}
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

// BenchmarkProcessBatch measures raw engine throughput for a
// 50-modification PartSupp batch on the paper view.
func BenchmarkProcessBatch(b *testing.B) {
	cfg := tpcr.Config{ScaleFactor: 0.002, Seed: 1, SupplierSuppkeyIndex: true}
	db := storage.NewDB()
	if err := tpcr.Generate(db, cfg); err != nil {
		b.Fatal(err)
	}
	m, err := ivm.New(db, tpcr.PaperView)
	if err != nil {
		b.Fatal(err)
	}
	gen := tpcr.NewUpdateGen(db, cfg, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 50; j++ {
			if err := m.Apply(gen.PartSuppUpdate()); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.ProcessBatch("PS", 50); err != nil {
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
