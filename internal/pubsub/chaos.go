package pubsub

import (
	"errors"
	"fmt"
	"path"
	"strings"

	"abivm/internal/core"
	"abivm/internal/costfn"
	"abivm/internal/durable"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// Chaos harness: run one deterministic pub/sub workload twice — once
// fault-free, once under a seeded injector with retries, rollbacks,
// degradation, checkpoints, and crash-recovery live — and compare the
// two executions byte for byte. Because the Seeded injector caps
// consecutive failures below the broker's retry budget and recovery is
// an exact redo, the faulted run must produce identical notifications
// and identical final view contents; any divergence is a fault-handling
// bug. This is the paper's QoS guarantee restated as a testable
// property: injected faults may cost retries, but they may never cost
// correctness or the constraint C.

// ChaosConfig parameterizes one chaos comparison.
type ChaosConfig struct {
	// Seed drives both the workload generator and the fault schedule.
	Seed int64
	// Steps is the number of broker steps to run (default 60).
	Steps int
	// CheckpointEvery is the broker checkpoint cadence in steps; 0
	// disables periodic checkpoints, so recovery replays the whole WAL
	// from the Subscribe-time checkpoint.
	CheckpointEvery int
	// Shards selects the runtime: 0 runs the serial broker on the legacy
	// east/west workload; n >= 1 runs the sharded runtime with n shards
	// on a widened workload (2n regions) with per-shard fault injectors.
	// Either way mid-step cost/health samples are folded into the
	// transcripts (so the comparison proves those schedule-independent
	// too).
	Shards int
	// DataDir roots the disk variants' files; empty runs them over
	// per-namespace in-memory file systems (the hermetic default).
	DataDir string
}

// ChaosReport summarizes a faulted-vs-baseline comparison.
type ChaosReport struct {
	Seed          int64
	Steps         int
	Notifications int
	// Shards is the shard count of a sharded-mode run; 0 for the serial
	// broker.
	Shards int
	// Faults is the per-site injected-fault count of the faulted run.
	Faults map[fault.Site]int
	// TotalFaults is the number of faults injected.
	TotalFaults int
	// Degraded counts degraded notifications in the faulted run (0 when
	// the retry budget covers the injector's burst bound, as it does for
	// the Seeded injector).
	Degraded int
	// Identical reports whether notifications and final view contents of
	// every faulted variant are byte-identical to the baseline.
	Identical bool
	// Variants names the recovery configurations that were compared
	// against the baseline (full checkpoints and an incremental chain on
	// the serial broker, one combined entry in sharded mode, then the
	// shared-dataflow and disk variants).
	Variants []string
	// Diff holds a diagnostic excerpt of the first divergence, prefixed
	// with the diverging variant's name.
	Diff string

	// MediaFaults is the per-kind byte-level damage injected in the
	// disk-faulted variant, TotalMediaFaults their sum.
	MediaFaults      map[fault.MediaFault]int
	TotalMediaFaults int
	// DiskStats aggregates the disk-faulted variant's durability
	// counters (syncs, detected corruption, quarantined artifacts,
	// full-refresh fallbacks).
	DiskStats durable.Stats
	// DiskExact reports whether the disk-faulted variant stayed
	// byte-identical to the baseline despite the injected damage. When
	// false, the run must have degraded loudly (DiskStats.Fallbacks >
	// 0); a silent divergence flips Identical instead.
	DiskExact bool
}

// chaosEvent is one scripted modification.
type chaosEvent struct {
	table string
	mod   ivm.Mod
}

// DemoDB builds the deterministic base database of the demo and chaos
// workload — stations(stationkey, region) and sales(salekey, station,
// amount), sized by the spec — without a broker on top. The compiler
// front end calibrates catalog views against it, and tests use it to
// hand-wire comparison brokers.
func DemoDB(spec WorkloadSpec) (*storage.DB, error) {
	db := storage.NewDB()
	st, err := storage.NewSchema("stations", []storage.Column{
		{Name: "stationkey", Type: storage.TInt},
		{Name: "region", Type: storage.TString},
	}, "stationkey")
	if err != nil {
		return nil, err
	}
	stations, err := db.CreateTable(st)
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < int64(spec.Stations); i++ {
		region := spec.Regions[i%int64(len(spec.Regions))]
		if err := stations.Insert(storage.Row{storage.I(i), storage.S(region)}); err != nil {
			return nil, err
		}
	}
	if err := stations.CreateIndex("st_pk", storage.HashIndex, "stationkey"); err != nil {
		return nil, err
	}
	sa, err := storage.NewSchema("sales", []storage.Column{
		{Name: "salekey", Type: storage.TInt},
		{Name: "station", Type: storage.TInt},
		{Name: "amount", Type: storage.TFloat},
	}, "salekey")
	if err != nil {
		return nil, err
	}
	sales, err := db.CreateTable(sa)
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < int64(spec.SalesRows); i++ {
		if err := sales.Insert(storage.Row{storage.I(i), storage.I(i % int64(spec.Stations)), storage.F(10)}); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// chaosScript pregenerates the per-step modification schedule, so the
// baseline and faulted runs see the exact same stream. The generator
// itself lives in workload.go (eventGen), shared with the serve demo.
func chaosScript(seed int64, steps int, spec WorkloadSpec) [][]chaosEvent {
	g := newEventGenSpec(seed, spec)
	script := make([][]chaosEvent, steps)
	for t := range script {
		script[t] = g.step()
	}
	return script
}

// chaosModel builds the per-subscription cost model (sales, stations).
func chaosModel() (*core.CostModel, error) {
	fSales, err := costfn.NewLinear(0.5, 0.1)
	if err != nil {
		return nil, err
	}
	fStations, err := costfn.NewLinear(0.05, 4)
	if err != nil {
		return nil, err
	}
	return core.NewCostModel(fSales, fStations), nil
}

// chaosQoS is the response-time constraint C of the demo subscriptions.
const chaosQoS = 40.0

// regionQuery is one region's aggregate content query: total and count
// of sales at that region's stations.
func regionQuery(region string) string {
	return fmt.Sprintf(`SELECT SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st
		WHERE s.station = st.stationkey AND st.region = '%s'`, region)
}

// chaosResult is what a run leaves to compare: the rendered notification
// transcript followed by the final view contents, the degraded count,
// and the summed durability counters (zero without an opener).
type chaosResult struct {
	output   string
	degraded int
	stats    durable.Stats
}

// chaosSampleEvery is the step cadence of the mid-step samples.
const chaosSampleEvery = 10

// chaosRun executes the scripted workload against a fresh runtime built
// from cfg, checkpointing every cpEvery steps (0: never). Every
// chaosSampleEvery steps, after the step's publishes and before its
// EndStep, each subscription's cost and pending vector are sampled into
// the transcript — the sharded Health routes the owning shard's buffer
// first, so the sample is the serial broker's.
func chaosRun(script [][]chaosEvent, cfg RuntimeConfig, cpEvery int) (res chaosResult, err error) {
	rt, err := NewRuntime(cfg)
	if err != nil {
		return res, err
	}
	defer rt.Close()
	rt.SetCheckpointEvery(cpEvery)
	subs := rt.Subscriptions()
	var out strings.Builder
	for t, evs := range script {
		for _, ev := range evs {
			if err := rt.Publish(ev.table, ev.mod); err != nil {
				return res, fmt.Errorf("step %d: publish %s: %w", t, ev.table, err)
			}
		}
		if (t+1)%chaosSampleEvery == 0 {
			for _, name := range subs {
				cost, cerr := rt.TotalCost(name)
				h, herr := rt.Health(name)
				if err := errors.Join(cerr, herr); err != nil {
					return res, err
				}
				fmt.Fprintf(&out, "sample step=%d sub=%s cost=%.9g pending=%v\n",
					t, name, cost, h.Pending)
			}
		}
		ns, err := rt.EndStep()
		if err != nil {
			return res, fmt.Errorf("step %d: %w", t, err)
		}
		for _, n := range ns {
			if n.Degraded {
				res.degraded++
			} else if !core.ApproxLE(n.RefreshCost, chaosQoS) {
				return res, fmt.Errorf("step %d: %s: non-degraded refresh cost %.6g > QoS %.6g",
					t, n.Subscription, n.RefreshCost, chaosQoS)
			}
			fmt.Fprintf(&out, "step=%d sub=%s degraded=%v behind=%d over=%.9g cost=%.9g rows=%s\n",
				n.Step, n.Subscription, n.Degraded, n.StepsBehind, n.CostOvershoot,
				n.RefreshCost, renderRows(n.Rows))
		}
	}
	for _, name := range subs {
		rows, err := rt.Result(name)
		if err != nil {
			return res, err
		}
		fmt.Fprintf(&out, "%s: %s\n", name, renderRows(rows))
	}
	res.output, res.stats = out.String(), rt.DurabilityStats()
	return res, nil
}

// renderRows renders rows canonically for byte comparison.
func renderRows(rows []storage.Row) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = storage.EncodeKey(r...)
	}
	return strings.Join(parts, "|")
}

// chaosRule is how a variant's execution must relate to the baseline.
type chaosRule int

const (
	// byteIdentical: notifications and final contents equal the baseline's.
	byteIdentical chaosRule = iota
	// identicalOrLoudFallback: byte-identical, or at least one recovery
	// gave up on damaged artifacts and rebuilt from the live tables,
	// counting the corruption; diverging with no fallback is silent loss.
	identicalOrLoudFallback
)

// chaosVariant is one row of the comparison table: a recovery
// configuration (depth as in RuntimeConfig.ChainDepth) and its rule.
type chaosVariant struct {
	name    string
	depth   int
	opener  durable.Opener
	shared  bool
	faulted bool
	rule    chaosRule
}

// RunChaos runs the seeded workload fault-free once and then once per
// row of the variant table, holding each run to its rule against the
// baseline. The fault schedule is identical across variants (checkpoint
// layout never changes which sites are polled), so a divergence
// isolates a bug in that variant's recovery path; everything is seeded
// from the workload seed, so one integer (plus the shard count)
// reproduces the comparison.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Steps <= 0 {
		cfg.Steps = 60
	}
	// The seed picks the chain depth (1..4), so a seed sweep covers the
	// depth space.
	depth := 1 + int(((cfg.Seed%4)+4)%4)
	sharded, pre := cfg.Shards > 0, ""
	p := RuntimeConfig{Shards: cfg.Shards, Spec: DefaultWorkloadSpec()}
	if sharded {
		pre, p.Spec = "sharded-", ScaledWorkloadSpec(2*cfg.Shards)
	}
	script := chaosScript(cfg.Seed, cfg.Steps, p.Spec)

	// Fault-free output cannot depend on checkpoint layout: one baseline.
	p.ChainDepth = depth
	base, err := chaosRun(script, p, cfg.CheckpointEvery)
	if err != nil {
		return nil, fmt.Errorf("chaos seed %d: baseline run: %w", cfg.Seed, err)
	}
	rep := &ChaosReport{Seed: cfg.Seed, Steps: cfg.Steps, Shards: cfg.Shards, Identical: true,
		Notifications: strings.Count("\n"+base.output, "\nstep=")}

	// The serial broker compares full checkpoints (no chain) and a delta
	// chain; the sharded runtime one combined row. Then, in both modes:
	// the workload on the shared operator graph, fault-free (the
	// hash-consed graph computes the same views) and faulted (its
	// snapshot+WAL recovery is an exact redo); every subscription's WAL
	// and checkpoint segments in files, so crashes recover through the
	// disk path; and the same under seeded byte-level media damage (torn
	// writes, bit flips, truncations, dropped files, skipped renames),
	// where each seed either stays identical or falls back loudly.
	variants := []chaosVariant{{name: fmt.Sprintf("sharded(depth=%d)", depth), depth: depth, faulted: true}}
	if !sharded {
		variants = []chaosVariant{
			{name: "full", depth: -1, faulted: true},
			{name: fmt.Sprintf("incremental(depth=%d)", depth), depth: depth, faulted: true},
		}
	}
	var medias []*fault.Media
	for _, v := range append(variants,
		chaosVariant{name: pre + "shared", depth: depth, shared: true},
		chaosVariant{name: pre + "shared-faulted", depth: depth, shared: true, faulted: true},
		chaosVariant{name: fmt.Sprintf("%sdisk(depth=%d)", pre, depth), depth: depth, faulted: true,
			opener: cfg.diskOpener("disk", nil)},
		chaosVariant{name: fmt.Sprintf("%sdisk-faulted(depth=%d)", pre, depth), depth: depth, faulted: true,
			opener: cfg.diskOpener("disk-faulted", &medias), rule: identicalOrLoudFallback},
	) {
		rep.Variants = append(rep.Variants, v.name)
		// Track the injectors handed out, to sum fault counts over shards;
		// the runtime calls the factory sequentially, before any faulted
		// work, so the append does not race the shards' steps.
		var injs []*fault.Seeded
		p.Opener, p.Shared, p.ChainDepth, p.Injectors = v.opener, v.shared, v.depth, nil
		if v.faulted {
			seeded := SeededShardInjectors(cfg.Seed, fault.DefaultRates())
			p.Injectors = func(shard int) fault.Injector {
				inj := seeded(shard).(*fault.Seeded)
				injs = append(injs, inj)
				return inj
			}
		}
		got, err := chaosRun(script, p, cfg.CheckpointEvery)
		if err != nil {
			return nil, fmt.Errorf("chaos seed %d: %s run: %w", cfg.Seed, v.name, err)
		}
		// Every faulted variant sees the same fault schedule; report the
		// counts once, from the first one.
		if v.faulted && rep.Faults == nil {
			rep.Faults = map[fault.Site]int{}
			for _, inj := range injs {
				for site, n := range inj.Fired() {
					rep.Faults[site] += n
				}
				rep.TotalFaults += inj.Total()
			}
			rep.Degraded = got.degraded
		}
		identical := got.output == base.output
		if v.rule == identicalOrLoudFallback {
			rep.DiskStats, rep.DiskExact = got.stats, identical
			rep.MediaFaults = map[fault.MediaFault]int{}
			for _, m := range medias {
				for kind, n := range m.Fired() {
					rep.MediaFaults[kind] += n
				}
				rep.TotalMediaFaults += m.Total()
			}
			identical = identical || got.stats.Fallbacks > 0
		}
		if !identical && rep.Diff == "" {
			rep.Diff = v.name + " variant: " + firstDiff(base.output, got.output)
		}
		rep.Identical = rep.Identical && identical
	}
	return rep, nil
}

// diskOpener builds the durable-store opener of one disk variant:
// directory-backed under DataDir/seed-<n>/<variant> when DataDir is
// set, per-namespace in-memory file systems otherwise. A non-nil medias
// puts the seeded byte-level media injector (fault.DefaultMediaRates)
// under each store and records it there for totalling after the run;
// opens happen sequentially at Subscribe time, so that append is
// unsynchronized on purpose.
func (cfg ChaosConfig) diskOpener(variant string, medias *[]*fault.Media) durable.Opener {
	root := path.Join(cfg.DataDir, fmt.Sprintf("seed-%d", cfg.Seed), variant)
	if medias == nil {
		if cfg.DataDir == "" {
			return durable.MemOpener()
		}
		return durable.DirOpener(root)
	}
	open := durable.FaultyDirOpener(root, cfg.Seed, fault.DefaultMediaRates())
	if cfg.DataDir == "" {
		open = durable.FaultyMemOpener(cfg.Seed, fault.DefaultMediaRates())
	}
	return func(ns string) (*durable.Store, error) {
		st, err := open(ns)
		if err == nil {
			*medias = append(*medias, st.Media())
		}
		return st, err
	}
}

// firstDiff excerpts the first divergence between two transcripts.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) || i < len(lb); i++ {
		va, vb := "", ""
		if i < len(la) {
			va = la[i]
		}
		if i < len(lb) {
			vb = lb[i]
		}
		if va != vb {
			return fmt.Sprintf("line %d:\n  baseline: %s\n  faulted:  %s", i+1, va, vb)
		}
	}
	return ""
}
