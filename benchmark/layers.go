package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"abivm/internal/dataflow"
	"abivm/internal/durable"
	"abivm/internal/ivm"
	"abivm/internal/pubsub"
	"abivm/internal/storage"
	"abivm/internal/viewc"
)

// perLayer is the per-layer catalogue: every name is reported by every
// traced run (0 where the workload does not use the layer).
// BENCHMARK.json repeats it. Source B is the traced broker run seen
// through decorators on public seams; source D is the same kind of
// modification stream driven straight into a standalone instance of the
// layer.
var perLayer = []metricDef{
	// pubsub (B)
	{Name: "pubsub.publish_ns_per_mod", Unit: "ns", Better: "lower"},
	{Name: "pubsub.endstep_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "pubsub.endstep_self_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "pubsub.endstep_plain_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "pubsub.checkpoint_steps_share", Unit: "ratio", Better: "lower"},
	{Name: "pubsub.notifications", Unit: "count", Better: "higher"},
	{Name: "pubsub.rows_per_notification", Unit: "count", Better: "lower"},
	{Name: "pubsub.degraded", Unit: "count", Better: "lower"},
	{Name: "pubsub.qos_max_ratio", Unit: "ratio", Better: "lower"},
	{Name: "pubsub.shard_queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "pubsub.shard_weight_skew", Unit: "ratio", Better: "lower"},
	{Name: "pubsub.rejected", Unit: "count", Better: "lower"},
	// policy (B)
	{Name: "policy.act_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "policy.act_calls", Unit: "count", Better: "lower"},
	{Name: "policy.drains", Unit: "count", Better: "lower"},
	{Name: "policy.mods_per_drain_fact", Unit: "count", Better: "higher"},
	{Name: "policy.mods_per_drain_dim", Unit: "count", Better: "higher"},
	// ivm (D, plus two registry counters from B)
	{Name: "ivm.enqueue_ns_per_mod", Unit: "ns", Better: "lower"},
	{Name: "ivm.drain_fact_k1_ns", Unit: "ns", Better: "lower"},
	{Name: "ivm.drain_fact_k256_ns_per_mod", Unit: "ns", Better: "lower"},
	{Name: "ivm.drain_dim_k1_ns", Unit: "ns", Better: "lower"},
	{Name: "ivm.drain_dim_k256_ns_per_mod", Unit: "ns", Better: "lower"},
	{Name: "ivm.index_probes_per_mod", Unit: "count", Better: "lower"},
	{Name: "ivm.rows_scanned_per_mod", Unit: "count", Better: "lower"},
	{Name: "ivm.result_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "ivm.checkpoint_us", Unit: "us", Better: "lower"},
	{Name: "ivm.checkpoint_bytes", Unit: "count", Better: "lower"},
	{Name: "ivm.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "ivm.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "ivm.new_ms", Unit: "ms", Better: "lower"},
	{Name: "ivm.wal_appends_per_mod", Unit: "count", Better: "lower"},
	{Name: "ivm.drained_mods_per_mod", Unit: "count", Better: "lower"},
	// dataflow (D, shape from B)
	{Name: "dataflow.ingest_ns_per_mod", Unit: "ns", Better: "lower"},
	{Name: "dataflow.fold_ns_per_mod", Unit: "ns", Better: "lower"},
	{Name: "dataflow.subscribe_ms", Unit: "ms", Better: "lower"},
	{Name: "dataflow.operators", Unit: "count", Better: "lower"},
	{Name: "dataflow.intern_hits", Unit: "count", Better: "higher"},
	{Name: "dataflow.max_fanout", Unit: "count", Better: "lower"},
	// storage (D)
	{Name: "storage.apply_ns_per_mod", Unit: "ns", Better: "lower"},
	{Name: "storage.clone_ms", Unit: "ms", Better: "lower"},
	// durable (B then D)
	{Name: "durable.fs_ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "durable.fs_calls_per_step", Unit: "count", Better: "lower"},
	{Name: "durable.fs_bytes_per_mod", Unit: "count", Better: "lower"},
	{Name: "durable.syncs", Unit: "count", Better: "lower"},
	{Name: "durable.append_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "durable.sync_us", Unit: "us", Better: "lower"},
	{Name: "durable.put_delta_us", Unit: "us", Better: "lower"},
	{Name: "durable.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.bytes_on_disk_mb", Unit: "MiB", Better: "lower"},
	// exec, viewc (D)
	{Name: "exec.recompute_ms", Unit: "ms", Better: "lower"},
	{Name: "viewc.compile_ms", Unit: "ms", Better: "lower"},
	// the traced run against the untraced one
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterNames are the obs registry counters the per-layer metrics
// report as growth over the timed phase.
var counterNames = []string{
	"pubsub_degraded_notifications_total", "pubsub_shard_rejections_total",
	"ivm_wal_appends_total", "ivm_drained_mods_total",
}

// counters reads counterNames from the registry, each summed over its
// label sets, plus the stores' sync count.
func (in *instance) counters() map[string]float64 {
	out := map[string]float64{"durable.syncs": float64(in.b.DurabilityStats().Syncs)}
	for _, name := range counterNames {
		out[name] = 0
	}
	for _, m := range in.reg.Snapshot() {
		if _, ok := out[m.Name]; ok {
			out[m.Name] += m.Value
		}
	}
	return out
}

// brokerLayerMetrics is source B: what the decorators, the returned
// notifications and the broker's own stats accessors saw over the timed
// phase of the traced run.
func (in *instance) brokerLayerMetrics(ds *driveStats, out map[string]float64) {
	tot := in.tr.summarize(ds.traceFrom)
	grown := in.counters()
	for name, v := range ds.counters0 {
		grown[name] -= v
	}
	steps := float64(tot.count[spanEndStep])
	mods := float64(ds.timedMods)
	out["pubsub.publish_ns_per_mod"] = ratio(float64(tot.ns[spanPublish]), float64(tot.count[spanPublish]))
	out["pubsub.endstep_ns_per_step"] = ratio(float64(tot.ns[spanEndStep]), steps)
	out["pubsub.endstep_self_ns_per_step"] = ratio(float64(tot.endStepSelfNS), steps)
	out["pubsub.endstep_plain_p50_ns"], out["pubsub.checkpoint_steps_share"] = in.checkpointSplit(ds.traceFrom)
	out["pubsub.notifications"] = float64(ds.notifications)
	out["pubsub.rows_per_notification"] = ratio(float64(ds.rows), float64(ds.notifications))
	out["pubsub.qos_max_ratio"] = ds.qosMaxRatio
	out["pubsub.degraded"] = grown["pubsub_degraded_notifications_total"]
	out["pubsub.rejected"] = grown["pubsub_shard_rejections_total"]
	if in.sharded != nil {
		out["pubsub.shard_queue_depth_max"] = float64(ds.queueDepthMax)
		stats := in.sharded.ShardStats()
		maxW, sumW := 0.0, 0.0
		for _, st := range stats {
			sumW += st.Weight
			if st.Weight > maxW {
				maxW = st.Weight
			}
		}
		// 0 when the heaviest shard carries exactly the mean weight.
		out["pubsub.shard_weight_skew"] = ratio(maxW, sumW/float64(len(stats))) - 1
	}

	out["policy.act_calls"] = float64(tot.count[spanPolicyAct])
	out["policy.act_ns_per_call"] = ratio(float64(tot.ns[spanPolicyAct]), float64(tot.count[spanPolicyAct]))
	var factDrains, factMods, dimDrains, dimMods int64
	for _, p := range in.policies {
		factDrains += p.factDrains
		factMods += p.factMods
		dimDrains += p.dimDrains
		dimMods += p.dimMods
	}
	out["policy.drains"] = float64(factDrains + dimDrains)
	out["policy.mods_per_drain_fact"] = ratio(float64(factMods), float64(factDrains))
	out["policy.mods_per_drain_dim"] = ratio(float64(dimMods), float64(dimDrains))

	out["ivm.wal_appends_per_mod"] = ratio(grown["ivm_wal_appends_total"], mods)
	out["ivm.drained_mods_per_mod"] = ratio(grown["ivm_drained_mods_total"], mods)

	df := in.b.DataflowStats()
	out["dataflow.operators"] = float64(df.Nodes)
	out["dataflow.intern_hits"] = float64(df.InternHits)
	out["dataflow.max_fanout"] = float64(df.MaxFanout)

	fsCalls, fsNS := tot.fs()
	var fsBytes int64
	for _, f := range in.files {
		fsBytes += f.bytes
	}
	out["durable.fs_ns_per_step"] = ratio(float64(fsNS), steps)
	out["durable.fs_calls_per_step"] = ratio(float64(fsCalls), steps)
	out["durable.fs_bytes_per_mod"] = ratio(float64(fsBytes), mods)
	out["durable.syncs"] = grown["durable.syncs"]
}

// checkpointSplit separates EndStep time by step kind, which the
// benchmark can tell from the step number alone: the broker checkpoints
// on every cadence-th step. It returns the median EndStep of the other
// (plain) steps and the share of all EndStep time that checkpoint steps
// spend beyond a plain step — the durability work no span can reach from
// outside the broker.
func (in *instance) checkpointSplit(from int) (plainP50NS, share float64) {
	cadence := in.w.cpEvery
	if cadence == 0 {
		cadence = pubsub.DefaultCheckpointEvery
	}
	var plain, checkpoint []float64
	total := 0.0
	for _, s := range in.tr.recorded()[from:] {
		if s.name != spanEndStep {
			continue
		}
		d := float64(s.end - s.start)
		total += d
		if (int(s.step)+1)%cadence == 0 {
			checkpoint = append(checkpoint, d)
		} else {
			plain = append(plain, d)
		}
	}
	plainP50NS = median(plain)
	extra := 0.0
	for _, d := range checkpoint {
		extra += d - plainP50NS
	}
	return plainP50NS, ratio(extra, total)
}

// The standalone-layer suite's views: one aggregate, one grouped, one
// wide projection, one single-table filter.
var (
	layerT1 = t1Query(0)
	layerT2 = t2Queries[0]
	layerT3 = t3Query(0)
	layerT4 = t4Query(91)
)

// layerSteps is how many stream steps each standalone drive consumes.
const layerSteps = 96

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// timeMedian runs f n times and returns its median duration in ns.
func timeMedian(n int, f func() error) (float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs[i] = float64(time.Since(start))
	}
	return median(xs), nil
}

// aliasOf returns the FROM alias the two-table templates give a table.
func aliasOf(table string) string {
	if table == tblSales {
		return "s"
	}
	return "st"
}

// enqueue applies ev to the live tables and hands it to each maintainer
// as a deferred arrival, returning the time spent in ApplyDeferred and
// in the live-table apply.
func enqueue(db *storage.DB, ev event, ms ...*ivm.Maintainer) (enqNS, applyNS int64, err error) {
	start := time.Now()
	if err := applyEvent(db, ev); err != nil {
		return 0, 0, err
	}
	applyNS = int64(time.Since(start))
	mod := ev.mod
	mod.Alias = aliasOf(ev.table)
	start = time.Now()
	for _, m := range ms {
		if err := m.ApplyDeferred(mod); err != nil {
			return 0, 0, err
		}
	}
	return int64(time.Since(start)), applyNS, nil
}

// standaloneLayerMetrics is source D. Each block builds its own seeded
// world of the workload's shape so the layers do not disturb each other.
func standaloneLayerMetrics(spec streamSpec, seed int64, scratch string, out map[string]float64) error {
	if err := ivmLayer(spec, seed, out); err != nil {
		return fmt.Errorf("ivm layer: %w", err)
	}
	if err := dataflowLayer(spec, seed, out); err != nil {
		return fmt.Errorf("dataflow layer: %w", err)
	}
	if err := durableLayer(spec, seed, scratch, out); err != nil {
		return fmt.Errorf("durable layer: %w", err)
	}
	return execLayer(spec, seed, out)
}

// segSizes is a ChainStore that only records segment sizes.
type segSizes struct{ bytes, segs int64 }

func (s *segSizes) PutBase(seg []byte, _ uint64) error {
	s.bytes += int64(len(seg))
	s.segs++
	return nil
}

func (s *segSizes) PutDelta(seg []byte, _, _ uint64) error {
	s.bytes += int64(len(seg))
	s.segs++
	return nil
}

func ivmLayer(spec streamSpec, seed int64, out map[string]float64) error {
	db, gen, err := newWorld(spec, seed)
	if err != nil {
		return err
	}
	sales := db.MustTable(tblSales)
	ns, err := timeMedian(5, func() error {
		_, err := storage.CloneTable(storage.NewDB(), sales)
		return err
	})
	if err != nil {
		return err
	}
	out["storage.clone_ms"] = ns / 1e6

	var agg *ivm.Maintainer
	ns, err = timeMedian(3, func() error {
		agg, err = ivm.New(db, layerT1)
		return err
	})
	if err != nil {
		return err
	}
	out["ivm.new_ms"] = ns / 1e6
	wide, err := ivm.New(db, layerT3)
	if err != nil {
		return err
	}
	wal := ivm.NewWAL()
	agg.AttachWAL(wal)
	wide.AttachWAL(ivm.NewWAL())
	chain := ivm.NewCheckpointChain(ivm.DefaultChainDepth)
	sizes := &segSizes{}
	if err := chain.Checkpoint(agg); err != nil {
		return err
	}
	chain.SetStore(sizes)

	// The workload's own mix: enqueue a step, refresh, checkpoint at the
	// default cadence. Work-unit counts are exact for a seed.
	var enqNS, applyNS, mods int64
	var cpUS []float64
	stats0 := *agg.Stats()
	for step := 0; step < layerSteps; step++ {
		for _, ev := range gen.step() {
			e, a, err := enqueue(db, ev, agg, wide)
			if err != nil {
				return err
			}
			enqNS += e
			applyNS += a
			mods++
		}
		if err := agg.Refresh(); err != nil {
			return err
		}
		if err := wide.Refresh(); err != nil {
			return err
		}
		if (step+1)%8 == 0 {
			start := time.Now()
			if err := chain.Checkpoint(agg); err != nil {
				return err
			}
			cpUS = append(cpUS, float64(time.Since(start))/1e3)
			if err := wal.TruncateThrough(chain.TipLSN()); err != nil {
				return err
			}
		}
	}
	work := agg.Stats().Sub(stats0)
	out["ivm.enqueue_ns_per_mod"] = ratio(float64(enqNS), float64(2*mods))
	out["storage.apply_ns_per_mod"] = ratio(float64(applyNS), float64(mods))
	out["ivm.index_probes_per_mod"] = ratio(float64(work.IndexProbes), float64(mods))
	out["ivm.rows_scanned_per_mod"] = ratio(float64(work.RowsScanned), float64(mods))
	out["ivm.checkpoint_us"] = median(cpUS)
	out["ivm.checkpoint_bytes"] = ratio(float64(sizes.bytes), float64(sizes.segs))
	// A compaction folds the chain into a fresh base: decode, apply and
	// re-encode the whole replica. Time it on a chain with one delta.
	if chain.Depth() == 0 {
		if err := chain.Checkpoint(agg); err != nil {
			return err
		}
	}
	start := time.Now()
	if err := chain.Compact(); err != nil {
		return err
	}
	out["ivm.compact_ms"] = msSince(start)

	// The measured f_i(k): one-table drains of k modifications.
	drain := func(table string, k, reps int) (float64, error) {
		alias := aliasOf(table)
		xs := make([]float64, reps)
		for i := range xs {
			for j := 0; j < k; j++ {
				var ev event
				if table == tblSales {
					ev = gen.salesMod()
				} else {
					ev = gen.stationMod()
				}
				if _, _, err := enqueue(db, ev, agg); err != nil {
					return 0, err
				}
			}
			start := time.Now()
			if err := agg.ProcessBatch(alias, k); err != nil {
				return 0, err
			}
			xs[i] = float64(time.Since(start)) / float64(k)
		}
		return median(xs), nil
	}
	for _, d := range []struct {
		name    string
		table   string
		k, reps int
	}{
		{"ivm.drain_fact_k1_ns", tblSales, 1, 201},
		{"ivm.drain_fact_k256_ns_per_mod", tblSales, 256, 9},
		{"ivm.drain_dim_k1_ns", tblStations, 1, 51},
		{"ivm.drain_dim_k256_ns_per_mod", tblStations, 256, 5},
	} {
		if out[d.name], err = drain(d.table, d.k, d.reps); err != nil {
			return err
		}
	}

	// wide missed the drain loop's modifications; rebuild it so Result
	// is timed on a current view.
	if wide, err = ivm.New(db, layerT3); err != nil {
		return err
	}
	rows := 0
	ns, err = timeMedian(21, func() error {
		rows = len(wide.Result())
		return nil
	})
	if err != nil {
		return err
	}
	out["ivm.result_ns_per_row"] = ratio(ns, float64(rows))

	// Recovery replays the WAL suffix past the chain tip.
	for _, ev := range gen.step() {
		if _, _, err := enqueue(db, ev, agg); err != nil {
			return err
		}
	}
	ns, err = timeMedian(3, func() error {
		_, err := ivm.RecoverChain(db, layerT1, chain, wal)
		return err
	})
	if err != nil {
		return err
	}
	out["ivm.recover_ms"] = ns / 1e6
	return nil
}

func dataflowLayer(spec streamSpec, seed int64, out map[string]float64) error {
	db, gen, err := newWorld(spec, seed)
	if err != nil {
		return err
	}
	g := dataflow.NewGraph(db)
	var handles []*dataflow.ViewHandle
	subMS := 0.0
	for _, q := range []string{layerT1, layerT2, layerT3} {
		p, err := ivm.PlanView(q)
		if err != nil {
			return err
		}
		start := time.Now()
		h, err := g.Subscribe(p)
		if err != nil {
			return err
		}
		subMS += msSince(start)
		h.AttachWAL(ivm.NewWAL())
		handles = append(handles, h)
	}
	out["dataflow.subscribe_ms"] = subMS / float64(len(handles))
	var ingestNS, foldNS, mods int64
	for step := 0; step < layerSteps; step++ {
		for _, ev := range gen.step() {
			if err := applyEvent(db, ev); err != nil {
				return err
			}
			start := time.Now()
			if err := g.Ingest(ev.table, ev.mod); err != nil {
				return err
			}
			ingestNS += int64(time.Since(start))
			mods++
		}
		start := time.Now()
		for _, h := range handles {
			if err := h.Refresh(); err != nil {
				return err
			}
		}
		foldNS += int64(time.Since(start))
	}
	out["dataflow.ingest_ns_per_mod"] = ratio(float64(ingestNS), float64(mods))
	out["dataflow.fold_ns_per_mod"] = ratio(float64(foldNS), float64(mods*int64(len(handles))))
	return nil
}

// timedStore forwards the WAL-sink and chain-store calls to a
// durable.Store and times each kind.
type timedStore struct {
	st                *durable.Store
	appendNS, appends int64
	putDeltaUS        []float64
}

func (t *timedStore) AppendRecord(rec ivm.WALRecord) error {
	start := time.Now()
	err := t.st.AppendRecord(rec)
	t.appendNS += int64(time.Since(start))
	t.appends++
	return err
}

func (t *timedStore) TruncateRecords(lsn uint64) error { return t.st.TruncateRecords(lsn) }
func (t *timedStore) PutBase(seg []byte, lsn uint64) error {
	return t.st.PutBase(seg, lsn)
}

func (t *timedStore) PutDelta(seg []byte, from, lsn uint64) error {
	start := time.Now()
	err := t.st.PutDelta(seg, from, lsn)
	t.putDeltaUS = append(t.putDeltaUS, float64(time.Since(start))/1e3)
	return err
}

func durableLayer(spec streamSpec, seed int64, scratch string, out map[string]float64) error {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "layer-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, gen, err := newWorld(spec, seed)
	if err != nil {
		return err
	}
	const ns = "layer"
	fsys, err := durable.NewDirFS(dir)
	if err != nil {
		return err
	}
	st, err := durable.NewStore(fsys, ns)
	if err != nil {
		return err
	}
	ts := &timedStore{st: st}
	m, err := ivm.New(db, layerT1)
	if err != nil {
		return err
	}
	wal := ivm.NewWAL()
	m.AttachWAL(wal)
	m.SetNamespace(ns)
	wal.SetSink(ts)
	chain := ivm.NewCheckpointChain(ivm.DefaultChainDepth)
	chain.SetStore(ts)
	if err := chain.Checkpoint(m); err != nil {
		return err
	}
	var syncUS []float64
	for step := 0; step < layerSteps; step++ {
		for _, ev := range gen.step() {
			if _, _, err := enqueue(db, ev, m); err != nil {
				return err
			}
		}
		start := time.Now()
		if err := st.Sync(); err != nil {
			return err
		}
		syncUS = append(syncUS, float64(time.Since(start))/1e3)
		if err := m.Refresh(); err != nil {
			return err
		}
		if (step+1)%4 == 0 {
			if err := chain.Checkpoint(m); err != nil {
				return err
			}
			if err := wal.TruncateThrough(chain.TipLSN()); err != nil {
				return err
			}
		}
	}
	// Leave a WAL suffix past the last checkpoint for recovery to replay.
	for _, ev := range gen.step() {
		if _, _, err := enqueue(db, ev, m); err != nil {
			return err
		}
	}
	if err := st.Sync(); err != nil {
		return err
	}
	out["durable.append_ns_per_rec"] = ratio(float64(ts.appendNS), float64(ts.appends))
	out["durable.sync_us"] = median(syncUS)
	out["durable.put_delta_us"] = median(ts.putDeltaUS)
	size, err := dirSize(dir)
	if err != nil {
		return err
	}
	out["durable.bytes_on_disk_mb"] = float64(size) / (1 << 20)

	reopened, err := durable.NewStore(fsys, ns)
	if err != nil {
		return err
	}
	start := time.Now()
	rec, err := reopened.Recover(db, layerT1, ivm.DefaultChainDepth, nil)
	if err != nil {
		return err
	}
	out["durable.recover_ms"] = msSince(start)
	if rec.Fallback {
		return fmt.Errorf("recovery over an undamaged store fell back to a full refresh")
	}
	return nil
}

func execLayer(spec streamSpec, seed int64, out map[string]float64) error {
	db, _, err := newWorld(spec, seed)
	if err != nil {
		return err
	}
	total := 0.0
	for _, q := range []string{layerT1, layerT2, layerT3, layerT4} {
		ns, err := timeMedian(3, func() error {
			_, err := recompute(db, q)
			return err
		})
		if err != nil {
			return err
		}
		total += ns / 1e6
	}
	out["exec.recompute_ms"] = total
	start := time.Now()
	if _, err := viewc.Compile(db, layerT1, viewc.Options{Seed: calibrationSeed}); err != nil {
		return err
	}
	out["viewc.compile_ms"] = msSince(start)
	return nil
}

// runTraced is the --trace 1 run: an untraced quarter-length run for
// reference, the same inputs traced, then the standalone layers.
func (w *workload) runTraced(seed int64, sz sizing, scratch, traceFile string) (*runResult, error) {
	q := sz.quarter()
	var a account
	plain, err := w.setup(seed, q, nil)
	if err != nil {
		return nil, err
	}
	pds, err := plain.drive(q, &a)
	plain.close()
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	in, err := w.setup(seed, q, tr)
	if err != nil {
		return nil, err
	}
	defer in.close()
	vals := map[string]float64{}
	ds, err := in.drive(q, &a)
	if err != nil {
		return nil, err
	}
	in.brokerLayerMetrics(ds, vals)
	hash, err := in.verify(&a)
	if err != nil {
		return nil, err
	}
	vals["trace.overhead_share"] = 1 - ratio(ds.modsPerSecond(), pds.modsPerSecond())
	if err := tr.writeFile(traceFile, w.name, seed); err != nil {
		return nil, err
	}
	if err := standaloneLayerMetrics(q.apply(w.stream), seed, scratch, vals); err != nil {
		return nil, err
	}
	metrics := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		metrics[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return &runResult{
		Workload: w.name, Seed: seed, Trace: true, Steps: q.counts(),
		Attempted: a.attempted, Failed: a.failed, Failure: a.firstFailure,
		Hash: hash, Samples: ds.refreshSamples(), Metrics: metrics,
	}, nil
}

// dirSize sums the sizes of the regular files under root.
func dirSize(root string) (int64, error) {
	var total int64
	err := filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
