package main

import (
	"fmt"

	"abivm/internal/core"
	"abivm/internal/costfn"
	"abivm/internal/dataflow"
	"abivm/internal/durable"
	"abivm/internal/ivm"
	"abivm/internal/obs"
	"abivm/internal/policy"
	"abivm/internal/pubsub"
	"abivm/internal/storage"
	"abivm/internal/viewc"
)

// demoQoS is the demo workload's response-time constraint C.
const demoQoS = 40.0

// calibrationSeed is the fixed seed viewc calibrates skew-dim's cost
// functions with, so the fitted models do not depend on --seed.
const calibrationSeed = 7

// View templates over the demo schema. Every shape here is accepted by
// both maintenance engines (TestTemplatesSubscribeOnBothEngines).
func t1Query(region int) string {
	return fmt.Sprintf(`SELECT SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region = '%s'`, regionName(region))
}

// t2Queries are the GROUP BY st.region variants; they differ only in the
// aggregate list, so the shared engine runs their join once.
var t2Queries = []string{
	`SELECT st.region, SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region`,
	`SELECT st.region, MIN(s.amount), MAX(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region`,
	`SELECT st.region, AVG(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region`,
	`SELECT st.region, COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region`,
}

func t3Query(region int) string {
	return fmt.Sprintf(`SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region = '%s'`, regionName(region))
}

func t4Query(minAmount int) string {
	return fmt.Sprintf(`SELECT s.salekey, s.amount FROM sales AS s WHERE s.amount >= %d`, minAmount)
}

// viewSpec is one subscription of a workload.
type viewSpec struct {
	name  string
	query string
	every int      // notification cadence in steps
	tabs  []string // base table per FROM alias, in FROM order
}

var twoTables = []string{tblSales, tblStations}

// cadence staggers notification conditions over Every(5..13).
func cadence(i int) int { return 5 + i%9 }

// fanoutViews is the 24-view overlapping population of the fanout
// workloads: 12×T1, 4×T2, 4×T3, 4×T4. T3's regions repeat T1's first
// four, so under the shared engine each of those pairs shares one
// filtered join.
func fanoutViews() []viewSpec {
	var vs []viewSpec
	for r := 0; r < 12; r++ {
		vs = append(vs, viewSpec{fmt.Sprintf("t1-r%02d", r), t1Query(r), 0, twoTables})
	}
	for i, q := range t2Queries {
		vs = append(vs, viewSpec{fmt.Sprintf("t2-%d", i), q, 0, twoTables})
	}
	for r := 0; r < 4; r++ {
		vs = append(vs, viewSpec{fmt.Sprintf("t3-r%02d", r), t3Query(r), 0, twoTables})
	}
	for i := 0; i < 4; i++ {
		vs = append(vs, viewSpec{fmt.Sprintf("t4-%d", i), t4Query(91 + 2*i), 0, []string{tblSales}})
	}
	for i := range vs {
		vs[i].every = cadence(i)
	}
	return vs
}

func durableViews() []viewSpec {
	return []viewSpec{
		{"t1-r00", t1Query(0), 5, twoTables},
		{"t1-r01", t1Query(1), 7, twoTables},
		{"t2-0", t2Queries[0], 9, twoTables},
		{"t4-0", t4Query(91), 11, []string{tblSales}},
	}
}

func skewViews() []viewSpec {
	return []viewSpec{
		{"t1-r00", t1Query(0), 5, twoTables},
		{"t1-r01", t1Query(1), 7, twoTables},
		{"t2-0", t2Queries[0], 9, twoTables},
		{"t3-r00", t3Query(0), 1, twoTables},
		{"t3-r01", t3Query(1), 1, twoTables},
		{"t3-r02", t3Query(2), 1, twoTables},
	}
}

// workload is one named benchmark configuration.
type workload struct {
	name   string
	why    string
	stream streamSpec
	views  func() []viewSpec
	shared bool // SetSharedDataflow(true)
	shards int  // > 0 selects ShardedBroker with min(shards, nproc)
	stores bool // a durable.Store behind every subscription
	// cpEvery overrides the checkpoint cadence; 0 keeps the default.
	cpEvery int
	// compiled provisions views through viewc.Compile (fitted cost
	// models, C = 4·max_i f_i(1)) instead of the fixed demo models.
	compiled bool
}

// stepsPerSecond converts --seconds into the fixed step count. It is
// the steady-state step rate of the slowest workload on the box the
// benchmark was sized on, rounded down, and a constant of the benchmark:
// a run does the same work on every commit, whatever the code under
// test costs, and the three fanout workloads do the same steps so their
// final contents can be compared.
const stepsPerSecond = 167

// stepQuantum is the period of the broker's durability work in steps:
// the default checkpoint cadence (8) times the chain depth plus one (5),
// which durable-disk's cadence of 4 divides. Warm-up and segment lengths
// are multiples of it, so every segment holds the same number of
// checkpoints and compactions.
const stepQuantum = 40

var uniformStream = streamSpec{Sales: 2500, Stations: 100, SalesShare: 0.95, IndexSalesStation: true}

var workloads = []*workload{
	{
		name:   "fanout-classic",
		why:    "24 overlapping views on the per-view ivm engine: time goes to ivm drains and pubsub routing; serial baseline for sharded-2",
		stream: uniformStream, views: fanoutViews,
	},
	{
		name:   "fanout-shared",
		why:    "same inputs and views on the shared dataflow graph: dataflow does the join once, per-subscription overhead has its largest share",
		stream: uniformStream, views: fanoutViews, shared: true,
	},
	{
		name:   "sharded-2",
		why:    "same inputs and views on ShardedBroker with min(2,nproc) shards, fault-free: ingest queues, barriers and real parallel work",
		stream: uniformStream, views: fanoutViews, shards: 2,
	},
	{
		name:   "durable-disk",
		why:    "4 views each behind a durable.Store, checkpoint every 4 steps: framing, sync points, segment and MANIFEST writes, checkpoint serialisation",
		stream: uniformStream, views: durableViews, stores: true, cpEvery: 4,
	},
	{
		name:   "skew-dim",
		why:    "Zipf station keys, 40% dimension updates, unindexed sales.station, fitted cost models: dimension-side scans and wide results",
		stream: streamSpec{Sales: 2500, Stations: 100, SalesShare: 0.60, Zipf: true},
		views:  skewViews, compiled: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sizing fixes how much data and how many steps a run uses.
type sizing struct {
	sales, stations int // 0 keeps the workload's own size
	warmup          int
	segments        int
	segSteps        int
	setups          int // how many times set-up is repeated for setup_s
}

// minSegSteps is the segment length a segment's p99 needs to have ten
// samples beyond it; run_seconds in BENCHMARK.json is chosen to reach it
// with three segments.
const minSegSteps = 1000

func quantize(steps int) int {
	if steps < stepQuantum {
		return stepQuantum
	}
	return steps - steps%stepQuantum
}

// fullSizing derives the fixed step count from --seconds: as many
// segments, up to five, as stay at or above minSegSteps, and never fewer
// than three.
func fullSizing(seconds int) sizing {
	total := stepsPerSecond * seconds
	segs := 5
	for segs > 3 && total/segs < minSegSteps {
		segs--
	}
	seg := quantize(total / segs)
	return sizing{warmup: quantize(seg / 4), segments: segs, segSteps: seg, setups: 9}
}

// quickSizing is the toy size of -quick and the smoke test.
func quickSizing() sizing {
	return sizing{sales: 600, stations: 48, warmup: 8, segments: 3, segSteps: 16, setups: 1}
}

// quarter shortens a sizing to the traced run's quarter length; a
// sizing already below a quantum per segment stays as it is.
func (s sizing) quarter() sizing {
	if s.segSteps >= 4*stepQuantum {
		s.segSteps = quantize(s.segSteps / 4)
	}
	return s
}

func (s sizing) timedSteps() int { return s.segments * s.segSteps }

func (s sizing) apply(spec streamSpec) streamSpec {
	if s.sales > 0 {
		spec.Sales = s.sales
	}
	if s.stations > 0 {
		spec.Stations = s.stations
	}
	return spec
}

// broker is the part of the serial and sharded broker APIs the driver
// loop uses; both brokers are synchronous, which is what makes the
// benchmark a closed loop.
type broker interface {
	Subscribe(pubsub.Subscription) error
	Publish(table string, mod ivm.Mod) error
	EndStep() ([]pubsub.Notification, error)
	Result(name string) ([]storage.Row, error)
	TotalCost(name string) (float64, error)
	SetCheckpointEvery(n int)
	SetStoreOpener(durable.Opener)
	SetSharedDataflow(on bool) error
	SetObs(reg *obs.Registry, tr *obs.Tracer)
	DataflowStats() dataflow.GraphStats
	DurabilityStats() durable.Stats
}

// instance is one set-up broker ready to be driven.
type instance struct {
	w       *workload
	db      *storage.DB
	gen     *generator
	b       broker
	sharded *pubsub.ShardedBroker // nil on the serial broker
	views   []viewSpec
	qos     map[string]float64
	// finalStep is the broker step on which every condition fires, so
	// the last step refreshes every view for the oracle check.
	finalStep int

	// Traced-run attachments; nil on the end-to-end run.
	tr       *tracer
	reg      *obs.Registry
	policies []*tracedPolicy
	files    []*tracedFS
}

// close stops the shard workers.
func (in *instance) close() {
	if in.sharded != nil {
		in.sharded.Close()
	}
}

func demoModel(tabs []string) (*core.CostModel, error) {
	fs := make([]core.CostFunc, len(tabs))
	for i, t := range tabs {
		a, b := 0.5, 0.1
		if t == tblStations {
			a, b = 0.05, 4
		}
		f, err := costfn.NewLinear(a, b)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return core.NewCostModel(fs...), nil
}

// subscription provisions one view: the fixed demo model, or on
// compiled workloads a model fitted by viewc.Compile.
func (in *instance) subscription(v viewSpec) (pubsub.Subscription, error) {
	cond := func(step int) bool {
		return step == in.finalStep || (step > 0 && step%v.every == 0)
	}
	if !in.w.compiled {
		model, err := demoModel(v.tabs)
		if err != nil {
			return pubsub.Subscription{}, err
		}
		return pubsub.Subscription{Name: v.name, Query: v.query, Condition: cond, Model: model, QoS: demoQoS}, nil
	}
	cv, err := viewc.Compile(in.db, v.query, viewc.Options{Name: v.name, Seed: calibrationSeed, Condition: cond})
	if err != nil {
		return pubsub.Subscription{}, err
	}
	sub := cv.Subscription()
	sub.QoS = 0
	for i := 0; i < cv.Model.N(); i++ {
		if c := 4 * cv.Model.TableCost(i, 1); c > sub.QoS {
			sub.QoS = c
		}
	}
	return sub, nil
}

// setup builds the base tables and the broker and subscribes every
// view. tr non-nil makes it a traced instance: timing decorators on the
// policy and FS seams and an obs registry for counters.
func (w *workload) setup(seed int64, sz sizing, tr *tracer) (*instance, error) {
	db, gen, err := newWorld(sz.apply(w.stream), seed)
	if err != nil {
		return nil, err
	}
	in := &instance{w: w, db: db, gen: gen, views: w.views(), qos: map[string]float64{}, finalStep: -1, tr: tr}
	if w.shards > 0 {
		n := w.shards
		if p := nproc(); p < n {
			n = p
		}
		in.sharded = pubsub.NewShardedBroker(db, pubsub.ShardOptions{Shards: n})
		in.b = in.sharded
	} else {
		in.b = pubsub.NewBroker(db)
	}
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()
	if tr != nil {
		in.reg = obs.NewRegistry()
		in.b.SetObs(in.reg, nil)
	}
	if w.cpEvery > 0 {
		in.b.SetCheckpointEvery(w.cpEvery)
	}
	if w.stores {
		in.b.SetStoreOpener(in.opener())
	}
	if w.shared {
		if err := in.b.SetSharedDataflow(true); err != nil {
			return nil, err
		}
	}
	for _, v := range in.views {
		sub, err := in.subscription(v)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", w.name, v.name, err)
		}
		if tr != nil {
			p := &tracedPolicy{inner: policy.NewOnlineMarginal(sub.Model, sub.QoS, nil), tr: tr, tabs: v.tabs}
			in.policies = append(in.policies, p)
			sub.Policy = p
		}
		in.qos[v.name] = sub.QoS
		if err := in.b.Subscribe(sub); err != nil {
			return nil, fmt.Errorf("%s: subscribing %s: %w", w.name, v.name, err)
		}
	}
	ok = true
	return in, nil
}

// opener is the benchmark's own durable.Opener: one durable.Store per
// namespace over the durable tier's in-memory file layer, with a timing
// FS in between on the traced run. The files are kept in memory because
// this box's file system cannot be gated on: with DirFS an fsync took
// 0.1 to 10 ms depending on the other tenants' disk traffic (one set of
// runs came out four times slower than the next), and without the fsync
// thirty consecutive runs drifted from 0.39 to 0.82 ms a step as the
// kernel's deferred journal and discard work piled up. What the store
// does — framing, CRCs, segment and MANIFEST writes, how many calls and
// bytes it hands down — is the same on either file layer; the standalone
// durable layer (durable.sync_us, durable.put_delta_us, ...) runs on
// DirFS with real files and the flush in.
func (in *instance) opener() durable.Opener {
	return func(ns string) (*durable.Store, error) {
		var fsys durable.FS = durable.NewMemFS()
		if in.tr != nil {
			f := &tracedFS{inner: fsys, tr: in.tr}
			in.files = append(in.files, f)
			fsys = f
		}
		return durable.NewStore(fsys, ns)
	}
}
