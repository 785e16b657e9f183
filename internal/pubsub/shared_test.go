package pubsub

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"abivm/internal/durable"
	"abivm/internal/exec"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/obs"
	"abivm/internal/plan"
	"abivm/internal/sql"
	"abivm/internal/storage"
)

// sharedViewQueries returns n overlapping content queries over the
// common sales ⋈ stations join. The variants differ only in their
// SELECT list (projection / aggregate / grouping), so under the shared
// runtime they must all hash-cons onto one scan-scan-join spine;
// n beyond the variant count repeats queries, modeling the skewed view
// popularity of a real subscription population (popular queries
// re-register verbatim).
func sharedViewQueries(n int) []string {
	variants := []string{
		`SELECT st.region, SUM(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region`,
		`SELECT st.region, COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region`,
		`SELECT st.region, SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region`,
		`SELECT s.station, SUM(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY s.station`,
		`SELECT s.station, COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY s.station`,
		`SELECT SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey`,
	}
	out := make([]string, n)
	for i := range out {
		out[i] = variants[i%len(variants)]
	}
	return out
}

// subscribeSharedViews registers n overlapping views on b.
func subscribeSharedViews(t testing.TB, b *Broker, n int) {
	t.Helper()
	model, err := chaosModel()
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range sharedViewQueries(n) {
		err := b.Subscribe(Subscription{
			Name:      fmt.Sprintf("v%d", i),
			Query:     q,
			Condition: Every(5),
			Model:     model,
			QoS:       chaosQoS,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSharedBrokerSharing pins the sub-linear operator count: six
// distinct views over the same join spine must build exactly one
// scan(sales), one scan(stations), and one join — and nothing else: a
// view's SELECT list and grouping are its sink's, not operators.
func TestSharedBrokerSharing(t *testing.T) {
	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(db)
	if err := b.SetSharedDataflow(true); err != nil {
		t.Fatal(err)
	}
	subscribeSharedViews(t, b, 6)
	st := b.DataflowStats()
	if st.Views != 6 {
		t.Fatalf("Views = %d, want 6", st.Views)
	}
	// 6 distinct SELECT lists over one shared spine: 2 scans + 1 join. A
	// per-view build would cost 6·3 = 18 operators.
	if want := 3; st.Nodes != want {
		t.Errorf("Nodes = %d, want %d (sharing regressed)", st.Nodes, want)
	}
	if st.InternHits == 0 {
		t.Error("InternHits = 0 — hash-consing never fired")
	}
	if st.MaxFanout < 6 {
		t.Errorf("MaxFanout = %d, want >= 6 (join fans out to every view's sink)", st.MaxFanout)
	}
}

// TestSharedUnsubscribeReleases pins the ref-counted lifecycle at the
// broker surface: unsubscribing tears down exactly the nodes no other
// view still references, and the last unsubscribe empties the graph.
func TestSharedUnsubscribeReleases(t *testing.T) {
	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(db)
	if err := b.SetSharedDataflow(true); err != nil {
		t.Fatal(err)
	}
	subscribeSharedViews(t, b, 3)
	if st := b.DataflowStats(); st.Nodes != 3 || st.Views != 3 || st.MaxFanout != 3 {
		t.Fatalf("3 views: Nodes=%d Views=%d MaxFanout=%d, want 3/3/3", st.Nodes, st.Views, st.MaxFanout)
	}
	// v1 owns no operator alone, only its sink on the join; the spine
	// stays for v0 and v2.
	if err := b.Unsubscribe("v1"); err != nil {
		t.Fatal(err)
	}
	if st := b.DataflowStats(); st.Nodes != 3 || st.Views != 2 || st.MaxFanout != 2 {
		t.Fatalf("after unsubscribe v1: Nodes=%d Views=%d MaxFanout=%d, want 3/2/2", st.Nodes, st.Views, st.MaxFanout)
	}
	if err := b.Unsubscribe("v0"); err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe("v2"); err != nil {
		t.Fatal(err)
	}
	if st := b.DataflowStats(); st.Nodes != 0 || st.Views != 0 {
		t.Fatalf("after all unsubscribes: Nodes=%d Views=%d, want 0/0 (operator leak)", st.Nodes, st.Views)
	}
	if err := b.Unsubscribe("v0"); err == nil {
		t.Error("double unsubscribe succeeded")
	}
}

// TestSharedModeGuards pins the mode-switch preconditions.
func TestSharedModeGuards(t *testing.T) {
	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(db)
	subscribeSharedViews(t, b, 1)
	if err := b.SetSharedDataflow(true); err == nil {
		t.Error("enabling shared dataflow after a classic subscription succeeded")
	}

	db2, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	b2 := NewBroker(db2)
	if err := b2.SetSharedDataflow(true); err != nil {
		t.Fatal(err)
	}
	subscribeSharedViews(t, b2, 1)
	if err := b2.SetSharedDataflow(false); err == nil {
		t.Error("disabling shared dataflow with live shared subscriptions succeeded")
	}
	if err := b2.Unsubscribe("v0"); err != nil {
		t.Fatal(err)
	}
	if err := b2.SetSharedDataflow(false); err != nil {
		t.Errorf("disabling with no live shared views: %v", err)
	}

	// Shared dataflow has no disk tier, whichever of the two is asked for
	// first: an opener installed after the switch must not be dropped
	// silently at Subscribe.
	db3, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	b3 := NewBroker(db3)
	b3.SetStoreOpener(durable.MemOpener())
	if err := b3.SetSharedDataflow(true); !errors.Is(err, errSharedStore) {
		t.Errorf("enabling shared dataflow over a store opener: %v", err)
	}
	b3.SetStoreOpener(nil)
	if err := b3.SetSharedDataflow(true); err != nil {
		t.Fatal(err)
	}
	b3.SetStoreOpener(durable.MemOpener())
	model, err := chaosModel()
	if err != nil {
		t.Fatal(err)
	}
	err = b3.Subscribe(Subscription{Name: "v0", Query: sharedViewQueries(1)[0], Condition: Every(5), Model: model, QoS: chaosQoS})
	if !errors.Is(err, errSharedStore) {
		t.Errorf("shared subscribe over a store opener installed after the switch: %v", err)
	}
	if st := b3.DataflowStats(); st.Views != 0 || st.Nodes != 0 {
		t.Errorf("refused subscribe left Views=%d Nodes=%d in the graph", st.Views, st.Nodes)
	}
}

// runSharedBench drives steps scripted modification steps through a
// broker with n overlapping views on either runtime.
func runSharedBench(b *testing.B, n int, shared bool) {
	b.Helper()
	script := chaosScript(7, 64, DefaultWorkloadSpec())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := chaosDB()
		if err != nil {
			b.Fatal(err)
		}
		br := NewBroker(db)
		if shared {
			if err := br.SetSharedDataflow(true); err != nil {
				b.Fatal(err)
			}
		}
		subscribeSharedViews(b, br, n)
		b.StartTimer()
		for t, evs := range script {
			for _, ev := range evs {
				if err := br.Publish(ev.table, ev.mod); err != nil {
					b.Fatalf("step %d: %v", t, err)
				}
			}
			if _, err := br.EndStep(); err != nil {
				b.Fatalf("step %d: %v", t, err)
			}
		}
	}
}

// BenchmarkSharedDataflow compares per-view maintenance against the
// shared operator graph as the number of overlapping views over the
// common sales ⋈ stations join grows. The classic runtime's cost is
// linear in the view count (every view re-runs the join probe per
// delta); the shared runtime runs the spine once per delta and pays
// per-view only for the private aggregation tops.
func BenchmarkSharedDataflow(b *testing.B) {
	for _, n := range []int{1, 4, 12} {
		for _, mode := range []struct {
			name   string
			shared bool
		}{{"classic", false}, {"shared", true}} {
			b.Run(fmt.Sprintf("runtime=%s/views=%d", mode.name, n), func(b *testing.B) {
				runSharedBench(b, n, mode.shared)
			})
		}
	}
}

// TestSharedFaultSitesExercised is a non-vacuity check on the shared
// chaos variant: across a few seeds the faulted shared run must
// actually hit drain, WAL, checkpoint, and crash sites (otherwise the
// byte-identity sweep proves nothing about shared-mode recovery).
func TestSharedFaultSitesExercised(t *testing.T) {
	sites := map[fault.Site]int{}
	for seed := int64(1); seed <= 6; seed++ {
		script := chaosScript(seed, 40, DefaultWorkloadSpec())
		inj := fault.NewSeeded(seed, fault.DefaultRates())
		p := RuntimeConfig{Spec: DefaultWorkloadSpec(), Shared: true,
			Injectors: func(int) fault.Injector { return inj }}
		if _, err := chaosRun(script, p, 5); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for site, n := range inj.Fired() {
			sites[site] += n
		}
	}
	for _, site := range []fault.Site{
		fault.SiteDrainPlan, fault.SiteDrainApply, fault.SiteWALCommit,
		fault.SiteCheckpoint, fault.SiteCrash,
	} {
		if sites[site] == 0 {
			t.Errorf("site %s never fired in shared-mode chaos runs", site)
		}
	}
}

// seriesValue reads an unlabeled counter or gauge off the registry.
func seriesValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("series %s not exported", name)
	return 0
}

// TestSharedStateGauges pins the state-side observability of the shared
// graph: the ivm_dataflow_state_rows / _retained_deltas /
// _trim_visited_total / _arrangements / _arrangement_hits_total /
// _probes_total / _products_total series mirror DataflowStats at every
// step boundary, and once the views have
// refreshed and checkpointed past the last modification, join state is
// exactly its inputs (every update and delete cancelled) and nothing is
// retained.
func TestSharedStateGauges(t *testing.T) {
	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(db)
	reg := obs.NewRegistry()
	b.SetObs(reg, nil)
	if err := b.SetSharedDataflow(true); err != nil {
		t.Fatal(err)
	}
	subscribeSharedViews(t, b, 3)
	endStep := func(step int) {
		if _, err := b.EndStep(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		st := b.DataflowStats()
		for name, want := range map[string]float64{
			"ivm_dataflow_state_rows":             float64(st.StateRows),
			"ivm_dataflow_retained_deltas":        float64(st.RetainedDeltas),
			"ivm_dataflow_trim_visited_total":     float64(st.TrimVisited),
			"ivm_dataflow_arrangements":           float64(st.Arrangements),
			"ivm_dataflow_arrangement_hits_total": float64(st.ArrangementHits),
			"ivm_dataflow_probes_total":           float64(st.Probes),
			"ivm_dataflow_products_total":         float64(st.Products),
		} {
			if got := seriesValue(t, reg, name); got != want {
				t.Fatalf("step %d: %s = %v, DataflowStats says %v", step, name, got, want)
			}
		}
	}
	script := chaosScript(11, 120, DefaultWorkloadSpec())
	for step, evs := range script {
		for _, ev := range evs {
			if err := b.Publish(ev.table, ev.mod); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		endStep(step)
	}
	// Quiet steps: every view's condition fires and a checkpoint passes.
	for step := len(script); step < len(script)+16; step++ {
		endStep(step)
	}
	sales, err := db.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	stations, err := db.Table("stations")
	if err != nil {
		t.Fatal(err)
	}
	st := b.DataflowStats()
	if want := sales.Len() + stations.Len(); st.StateRows != want {
		t.Errorf("quiesced join state holds %d rows, its inputs %d", st.StateRows, want)
	}
	if st.RetainedDeltas != 0 {
		t.Errorf("quiesced graph retains %d deltas", st.RetainedDeltas)
	}
	if st.TrimVisited == 0 {
		t.Error("TrimVisited = 0 after 136 steps of checkpoints")
	}
	if st.Probes == 0 || st.Products == 0 {
		t.Errorf("%d probes and %d products after 120 steps of joined modifications", st.Probes, st.Products)
	}
	for _, name := range []string{"v0", "v1", "v2"} {
		if err := b.Unsubscribe(name); err != nil {
			t.Fatal(err)
		}
	}
	if st := b.DataflowStats(); st.StateRows != 0 || st.RetainedDeltas != 0 || st.Arrangements != 0 {
		t.Errorf("empty graph still counts %d state rows, %d retained deltas, %d arrangements", st.StateRows, st.RetainedDeltas, st.Arrangements)
	}
}

// TestSharedArrivalWritesNoRecord: the graph's ingest log is the one
// record of an arrival. Publishing to 24 shared views appends nothing to
// any of their redo logs — no view keeps its own copy of the Mod — while
// every view's state vector counts the arrival; what the logs do get is
// one record per committed drain.
func TestSharedArrivalWritesNoRecord(t *testing.T) {
	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(db)
	reg := obs.NewRegistry()
	b.SetObs(reg, nil)
	if err := b.SetSharedDataflow(true); err != nil {
		t.Fatal(err)
	}
	const views = 24
	subscribeSharedViews(t, b, views)
	counter := func(name string) float64 { return seriesValue(t, reg, name) }
	published := 0
	for _, evs := range chaosScript(3, 4, DefaultWorkloadSpec()) {
		for _, ev := range evs {
			if err := b.Publish(ev.table, ev.mod); err != nil {
				t.Fatal(err)
			}
			published++
		}
	}
	if published == 0 {
		t.Fatal("the script published nothing")
	}
	if got := counter("ivm_wal_appends_total"); got != 0 {
		t.Fatalf("%d publishes appended %v redo-log records", published, got)
	}
	for _, name := range b.Subscriptions() {
		h, err := b.Health(name)
		if err != nil {
			t.Fatal(err)
		}
		if h.WALRecords != 0 {
			t.Fatalf("%s holds %d redo-log records after arrivals only", name, h.WALRecords)
		}
		if h.Pending[0]+h.Pending[1] != published {
			t.Fatalf("%s counts %v pending of %d published", name, h.Pending, published)
		}
	}
	for _, s := range b.subs {
		if n := s.eng.(*sharedEngine).WAL().Len(); n != 0 {
			t.Fatalf("%s retains %d records", s.cfg.Name, n)
		}
	}
	// Step 5 fires every view's condition (Every(5)): each refreshes.
	for step := 0; step <= 5; step++ {
		if _, err := b.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	drains := counter("ivm_drains_total") - counter("ivm_drain_failures_total")
	if got := counter("ivm_wal_appends_total"); got != drains || drains < views {
		t.Fatalf("redo logs took %v appends for %v committed drains over %d views", got, drains, views)
	}
}

// crashOnce fires one crash, at the n-th poll of the crash site — the
// broker polls it once per subscription per step — and nothing else.
type crashOnce struct{ n, polls int }

func (c *crashOnce) Hit(site fault.Site) error {
	if site != fault.SiteCrash {
		return nil
	}
	c.polls++
	if c.polls-1 != c.n {
		return nil
	}
	return &fault.Error{Site: site, Kind: fault.KindCrash, Seq: 1}
}

// TestSharedCrashAtEveryStep crashes one shared sink at every
// (step, subscription) turn of a scripted run in turn — before its first
// drain, between a drain and the next checkpoint, right after a
// checkpoint — under a 3-step checkpoint cadence and with periodic
// checkpoints off, where every recovery replays all drains since
// subscribe over an inbox nothing has trimmed. Each run's transcript —
// notifications, and every view's content, state vector and redo-log
// length after every step — must equal the crash-free run's byte for
// byte.
func TestSharedCrashAtEveryStep(t *testing.T) {
	const steps, views = 16, 4
	script := chaosScript(5, steps, DefaultWorkloadSpec())
	run := func(cpEvery int, inj fault.Injector) (transcript string, walSeen bool) {
		t.Helper()
		cfg := RuntimeConfig{Spec: DefaultWorkloadSpec(), Shared: true,
			Subscribe: func(_ *storage.DB, rt Runtime) error {
				subscribeSharedViews(t, rt.(*Broker), views)
				return nil
			}}
		if inj != nil {
			cfg.Injectors = func(int) fault.Injector { return inj }
		}
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		rt.SetCheckpointEvery(cpEvery)
		var out strings.Builder
		for step, evs := range script {
			for _, ev := range evs {
				if err := rt.Publish(ev.table, ev.mod); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			ns, err := rt.EndStep()
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for _, n := range ns {
				fmt.Fprintf(&out, "step=%d notify %s degraded=%v cost=%.9g rows=%s\n", step, n.Subscription, n.Degraded, n.RefreshCost, renderRows(n.Rows))
			}
			for _, name := range rt.Subscriptions() {
				h, err := rt.Health(name)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := rt.Result(name)
				if err != nil {
					t.Fatal(err)
				}
				walSeen = walSeen || h.WALRecords > 0
				fmt.Fprintf(&out, "step=%d %s pending=%v wal=%d rows=%s\n", step, name, h.Pending, h.WALRecords, renderRows(rows))
			}
		}
		return out.String(), walSeen
	}
	for _, cpEvery := range []int{3, 0} {
		want, walSeen := run(cpEvery, nil)
		if !walSeen {
			t.Fatalf("cpEvery=%d: no step ended with a logged drain ahead of the checkpoint — no crash would replay anything", cpEvery)
		}
		for n := 0; n < steps*views; n++ {
			inj := &crashOnce{n: n}
			got, _ := run(cpEvery, inj)
			if inj.polls != steps*views {
				t.Fatalf("cpEvery=%d: crash site polled %d times, want %d", cpEvery, inj.polls, steps*views)
			}
			if got != want {
				t.Fatalf("cpEvery=%d: crash at step %d, subscription %d diverged from the crash-free run:\n%s", cpEvery, n/views, n%views, firstDiff(want, got))
			}
		}
	}
}

// TestShardedSharedMatchesRecompute: a sharded broker routes a step's
// publishes at EndStep, after every live change of the step, so a key
// inserted and then updated, or inserted and then deleted, in one step
// reaches its shard's graph when the live table already holds the key's
// later state. Every notification of the shared runtime still equals its
// query recomputed from scratch over the live tables.
func TestShardedSharedMatchesRecompute(t *testing.T) {
	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	sb := NewShardedBroker(db, ShardOptions{Shards: 2})
	if err := sb.SetSharedDataflow(true); err != nil {
		t.Fatal(err)
	}
	model, err := chaosModel()
	if err != nil {
		t.Fatal(err)
	}
	queries := map[string]string{
		"rows":    `SELECT s.salekey, s.station, s.amount, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey`,
		"regions": `SELECT st.region, SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region`,
		"maxima":  `SELECT s.station, MAX(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY s.station`,
	}
	for _, name := range []string{"rows", "regions", "maxima"} {
		if err := sb.Subscribe(Subscription{Name: name, Query: queries[name], Condition: func(int) bool { return true }, Model: model, QoS: chaosQoS}); err != nil {
			t.Fatal(err)
		}
	}
	sale := func(key, station int64, amount float64) storage.Row {
		return storage.Row{storage.I(key), storage.I(station), storage.F(amount)}
	}
	key := func(k int64) []storage.Value { return []storage.Value{storage.I(k)} }
	steps := [][]ivm.Mod{
		{{Kind: ivm.ModInsert, Row: sale(900, 1, 5)}, {Kind: ivm.ModUpdate, Key: key(900), Row: sale(900, 2, 7)}},
		{{Kind: ivm.ModInsert, Row: sale(901, 3, 4)}, {Kind: ivm.ModDelete, Key: key(901)}},
		{{Kind: ivm.ModInsert, Row: sale(902, 0, 1)}, {Kind: ivm.ModUpdate, Key: key(902), Row: sale(902, 0, 2)},
			{Kind: ivm.ModUpdate, Key: key(902), Row: sale(902, 4, 30)}},
		{{Kind: ivm.ModUpdate, Key: key(900), Row: sale(900, 5, 40)}, {Kind: ivm.ModDelete, Key: key(900)},
			{Kind: ivm.ModInsert, Row: sale(900, 6, 3)}},
		{{Kind: ivm.ModUpdate, Key: key(1), Row: sale(1, 3, 50)}, {Kind: ivm.ModDelete, Key: key(1)}},
	}
	for step, mods := range steps {
		for _, mod := range mods {
			if err := sb.Publish("sales", mod); err != nil {
				t.Fatal(err)
			}
		}
		notes, err := sb.EndStep()
		if err != nil {
			t.Fatal(err)
		}
		if len(notes) != len(queries) {
			t.Fatalf("step %d: %d notifications, want %d", step, len(notes), len(queries))
		}
		for _, n := range notes {
			if got, want := sortedRows(n.Rows), recomputed(t, db, queries[n.Subscription]); got != want {
				t.Fatalf("step %d: %s notified\n%s\nwant\n%s", step, n.Subscription, got, want)
			}
		}
	}
}

// sortedRows renders rows one a line, sorted.
func sortedRows(rows []storage.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = r.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// recomputed evaluates a query from scratch over db, as sortedRows.
func recomputed(t *testing.T, db *storage.DB, query string) string {
	t.Helper()
	sel, err := sql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	op, err := plan.Compile(sel, db, &plan.Options{Stats: &storage.Stats{}})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return sortedRows(rows)
}
