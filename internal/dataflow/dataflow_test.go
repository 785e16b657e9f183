package dataflow

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// testDB builds the stations/sales database the chaos workload uses.
func testDB(t *testing.T) *storage.DB {
	t.Helper()
	db := storage.NewDB()
	st, err := storage.NewSchema("stations", []storage.Column{
		{Name: "stationkey", Type: storage.TInt},
		{Name: "region", Type: storage.TString},
	}, "stationkey")
	if err != nil {
		t.Fatal(err)
	}
	stations, err := db.CreateTable(st)
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"EAST", "WEST"}
	for i := int64(0); i < 6; i++ {
		if err := stations.Insert(storage.Row{storage.I(i), storage.S(regions[i%2])}); err != nil {
			t.Fatal(err)
		}
	}
	if err := stations.CreateIndex("st_pk", storage.HashIndex, "stationkey"); err != nil {
		t.Fatal(err)
	}
	sa, err := storage.NewSchema("sales", []storage.Column{
		{Name: "salekey", Type: storage.TInt},
		{Name: "station", Type: storage.TInt},
		{Name: "amount", Type: storage.TFloat},
	}, "salekey")
	if err != nil {
		t.Fatal(err)
	}
	sales, err := db.CreateTable(sa)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if err := sales.Insert(storage.Row{storage.I(i), storage.I(i % 6), storage.F(float64(1 + i%9))}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// applyLive applies one modification to the live database through the
// broker's writer, ivm.ApplyLive.
func applyLive(t *testing.T, db *storage.DB, table string, mod ivm.Mod) {
	t.Helper()
	if err := ivm.ApplyLive(db, table, mod, true); err != nil {
		t.Fatal(err)
	}
}

func renderRows(rows []storage.Row) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = fmt.Sprintf("%q", storage.EncodeKey(r...))
	}
	return strings.Join(parts, "|")
}

// pair couples a classic maintainer and a shared-graph handle over one
// live database, fed the same modification and drain streams.
type pair struct {
	t  *testing.T
	db *storage.DB
	m  *ivm.Maintainer
	h  *ViewHandle
	g  *Graph
}

func newPair(t *testing.T, db *storage.DB, g *Graph, query string) *pair {
	t.Helper()
	m, err := ivm.New(db, query)
	if err != nil {
		t.Fatalf("ivm.New(%q): %v", query, err)
	}
	p, err := ivm.PlanView(query)
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.Subscribe(p)
	if err != nil {
		t.Fatalf("Subscribe(%q): %v", query, err)
	}
	return &pair{t: t, db: db, m: m, h: h, g: g}
}

// apply writes one modification to the live table and routes it to both
// runtimes: the maintainer enqueues it and the graph ingests it.
func (p *pair) apply(table string, mod ivm.Mod) {
	p.t.Helper()
	applyLive(p.t, p.db, table, mod)
	if err := p.m.ApplyDeferred(mod); err != nil {
		p.t.Fatalf("maintainer enqueue: %v", err)
	}
	if err := p.g.Ingest(table, mod); err != nil {
		p.t.Fatalf("graph ingest: %v", err)
	}
}

func (p *pair) drain(alias string, k int) {
	p.t.Helper()
	if err := p.m.ProcessBatch(alias, k); err != nil {
		p.t.Fatalf("maintainer drain %s/%d: %v", alias, k, err)
	}
	if err := p.h.ProcessBatch(alias, k); err != nil {
		p.t.Fatalf("handle drain %s/%d: %v", alias, k, err)
	}
}

func (p *pair) check(ctx string) {
	p.t.Helper()
	want := renderRows(p.m.Result())
	got := renderRows(p.h.Result())
	if want != got {
		p.t.Fatalf("%s: shared result diverged\nmaintainer: %s\nshared:     %s", ctx, want, got)
	}
	wantPend := fmt.Sprint(p.m.Pending())
	gotPend := fmt.Sprint(p.h.Pending())
	if wantPend != gotPend {
		p.t.Fatalf("%s: pending diverged: maintainer %s, shared %s", ctx, wantPend, gotPend)
	}
}

// mutate generates one deterministic pseudo-random modification stream
// step: inserts, deletes, and updates over both tables.
type mutator struct {
	rng      *rand.Rand
	nextSale int64
	sales    []int64
	stations []int64
}

func newMutator(seed int64) *mutator {
	mu := &mutator{rng: rand.New(rand.NewSource(seed)), nextSale: 20}
	for i := int64(0); i < 20; i++ {
		mu.sales = append(mu.sales, i)
	}
	for i := int64(0); i < 6; i++ {
		mu.stations = append(mu.stations, i)
	}
	return mu
}

// step emits (table, mod) pairs; aliases are stamped by the caller.
func (mu *mutator) step() (tables []string, mods []ivm.Mod) {
	n := 1 + mu.rng.Intn(3)
	for i := 0; i < n; i++ {
		switch mu.rng.Intn(4) {
		case 0, 1: // insert a sale
			id := mu.nextSale
			mu.nextSale++
			mu.sales = append(mu.sales, id)
			row := storage.Row{storage.I(id), storage.I(mu.stations[mu.rng.Intn(len(mu.stations))]), storage.F(float64(1 + mu.rng.Intn(20)))}
			tables = append(tables, "sales")
			mods = append(mods, ivm.Mod{Kind: ivm.ModInsert, Row: row})
		case 2: // delete a sale
			if len(mu.sales) == 0 {
				continue
			}
			i := mu.rng.Intn(len(mu.sales))
			id := mu.sales[i]
			mu.sales = append(mu.sales[:i], mu.sales[i+1:]...)
			tables = append(tables, "sales")
			mods = append(mods, ivm.Mod{Kind: ivm.ModDelete, Key: []storage.Value{storage.I(id)}})
		case 3: // flip a station's region
			id := mu.stations[mu.rng.Intn(len(mu.stations))]
			region := "EAST"
			if mu.rng.Intn(2) == 0 {
				region = "WEST"
			}
			tables = append(tables, "stations")
			mods = append(mods, ivm.Mod{Kind: ivm.ModUpdate, Key: []storage.Value{storage.I(id)}, Row: storage.Row{storage.I(id), storage.S(region)}})
		}
	}
	return tables, mods
}

var equivalenceQueries = []string{
	"SELECT SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region = 'EAST'",
	"SELECT st.region, SUM(s.amount), MIN(s.amount), MAX(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region",
	"SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND s.amount > 5",
	"SELECT region, COUNT(*) FROM stations GROUP BY region",
	"SELECT station, AVG(amount) FROM sales GROUP BY station",
}

// aliasFor maps a table to a query's FROM alias; the equivalence
// queries use s/st or the bare table names.
func aliasFor(m *ivm.Maintainer, table string) string {
	for _, src := range m.Plan().Sources {
		if src.Table == table {
			return src.Alias
		}
	}
	return ""
}

// TestEquivalenceWithMaintainer drives the per-view maintainer and the
// shared-graph handle with identical modification and asymmetric drain
// schedules and requires byte-identical results and backlog vectors at
// every step — the core byte-identity contract of the shared runtime.
func TestEquivalenceWithMaintainer(t *testing.T) {
	for qi, query := range equivalenceQueries {
		for seed := int64(1); seed <= 5; seed++ {
			db := testDB(t)
			g := NewGraph(db)
			p := newPair(t, db, g, query)
			mu := newMutator(seed)
			drains := rand.New(rand.NewSource(seed * 977))
			for step := 0; step < 40; step++ {
				tables, mods := mu.step()
				for i, mod := range mods {
					alias := aliasFor(p.m, tables[i])
					if alias == "" {
						continue // table not read by this view
					}
					mod.Alias = alias
					p.apply(tables[i], mod)
				}
				// Asymmetric drain: pick one alias, drain a random prefix.
				aliases := p.m.Aliases()
				alias := aliases[drains.Intn(len(aliases))]
				pend := p.m.Pending()
				for i, a := range aliases {
					if a == alias && pend[i] > 0 {
						p.drain(alias, 1+drains.Intn(pend[i]))
					}
				}
				p.check(fmt.Sprintf("query %d seed %d step %d", qi, seed, step))
			}
			// Full refresh at the end must converge both runtimes.
			if err := p.m.Refresh(); err != nil {
				t.Fatal(err)
			}
			if err := p.h.Refresh(); err != nil {
				t.Fatal(err)
			}
			p.check(fmt.Sprintf("query %d seed %d refresh", qi, seed))
		}
	}
}

// TestEquivalenceSingleTableMods exercises queries whose tables see no
// mods at all for long stretches (cursor coverage with frozen
// coordinates).
func TestEquivalenceLateSubscriber(t *testing.T) {
	query := equivalenceQueries[1]
	db := testDB(t)
	g := NewGraph(db)
	p := newPair(t, db, g, query)
	mu := newMutator(7)
	for step := 0; step < 10; step++ {
		tables, mods := mu.step()
		for i, mod := range mods {
			mod.Alias = aliasFor(p.m, tables[i])
			p.apply(tables[i], mod)
		}
	}
	// A subscriber arriving mid-stream starts from the live state with
	// an empty backlog, exactly like a fresh maintainer.
	p2 := newPair(t, db, g, equivalenceQueries[0])
	p2.check("late subscribe")
	drains := rand.New(rand.NewSource(99))
	for step := 0; step < 20; step++ {
		tables, mods := mu.step()
		for i, mod := range mods {
			mod.Alias = aliasFor(p.m, tables[i])
			p.apply(tables[i], mod)
			mod2 := mod
			mod2.Alias = aliasFor(p2.m, tables[i])
			if err := p2.m.ApplyDeferred(mod2); err != nil {
				t.Fatal(err)
			}
		}
		for _, pr := range []*pair{p, p2} {
			aliases := pr.m.Aliases()
			alias := aliases[drains.Intn(len(aliases))]
			pend := pr.m.Pending()
			for i, a := range aliases {
				if a == alias && pend[i] > 0 {
					pr.drain(alias, 1+drains.Intn(pend[i]))
				}
			}
		}
		p.check(fmt.Sprintf("late step %d view 1", step))
		p2.check(fmt.Sprintf("late step %d view 2", step))
	}
}

// TestSharingOpCount proves sharing is real: two views over the same
// join with different group-bys instantiate the shared sub-plan once —
// their SELECT lists live in their sinks, so the second view adds no node
// at all, and neither does a third identical one.
func TestSharingOpCount(t *testing.T) {
	db := testDB(t)
	g := NewGraph(db)
	qA := "SELECT st.region, SUM(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region"
	qB := "SELECT st.stationkey, COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.stationkey"

	pA, err := ivm.PlanView(qA)
	if err != nil {
		t.Fatal(err)
	}
	hA, err := g.Subscribe(pA)
	if err != nil {
		t.Fatal(err)
	}
	sigsA, _, err := Signatures(pA, g.schemaOf)
	if err != nil {
		t.Fatal(err)
	}
	checkNodesAre(t, g, sigsA) // scan(sales), scan(stations), join

	pB, err := ivm.PlanView(qB)
	if err != nil {
		t.Fatal(err)
	}
	hB, err := g.Subscribe(pB)
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Nodes != 3 { // both scans and the join shared, nothing else to build
		t.Fatalf("two overlapping views built %d nodes, want 3", st.Nodes)
	}
	if st.InternHits != 3 {
		t.Fatalf("intern hits = %d, want 3 (scan, scan, join reused)", st.InternHits)
	}
	if st.Views != 2 {
		t.Fatalf("views = %d, want 2", st.Views)
	}

	// An identical third view shares everything too; its sink rides the
	// existing join beside the other two.
	pA2, err := ivm.PlanView(qA)
	if err != nil {
		t.Fatal(err)
	}
	hA2, err := g.Subscribe(pA2)
	if err != nil {
		t.Fatal(err)
	}
	st = g.Stats()
	if st.Nodes != 3 {
		t.Fatalf("identical view added nodes: %d, want 3", st.Nodes)
	}
	if st.InternHits != 3+3 {
		t.Fatalf("intern hits = %d, want 6", st.InternHits)
	}

	// The shared join feeds all three sinks with correct, divergent
	// downstream content.
	mu := newMutator(3)
	for step := 0; step < 15; step++ {
		tables, mods := mu.step()
		for i, mod := range mods {
			applyLive(t, db, tables[i], mod)
			if err := g.Ingest(tables[i], mod); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, h := range []*ViewHandle{hA, hB, hA2} {
		if err := h.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	wantA, err := ivm.New(db, qA)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := ivm.New(db, qB)
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(hA.Result()) != renderRows(wantA.Result()) {
		t.Fatalf("view A diverged from fresh recompute")
	}
	if renderRows(hA2.Result()) != renderRows(wantA.Result()) {
		t.Fatalf("view A2 diverged from fresh recompute")
	}
	if renderRows(hB.Result()) != renderRows(wantB.Result()) {
		t.Fatalf("view B diverged from fresh recompute")
	}

	// The benchmark's 24-view fanout catalogue: 12 regional aggregates, 4
	// GROUP BY variants over the unfiltered join, 4 regional row lists
	// repeating the first four regions, 4 sales-only filters. A regional
	// view's filter is its join's rwhere, not an operator, so its 13 joins
	// read the two unfiltered scans through two arrangements, which hold
	// each row once; the sales scan's fan-out still counts the 13 join
	// sides beside the 4 direct filter edges. No view adds an operator of
	// its own: 24 SELECT lists, 24 sinks, 19 operators (2 scans, 4
	// filters, 13 joins).
	fan := NewGraph(regionalDB(t, 240, 20, regionNames(12)))
	for _, q := range fanoutCatalogue() {
		p, err := ivm.PlanView(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fan.Subscribe(p); err != nil {
			t.Fatal(err)
		}
	}
	want := GraphStats{Nodes: 19, Views: 24, InternHits: 49, MaxFanout: 17, Arrangements: 2, ArrangementHits: 24,
		StateRows: 240 + 12}
	if got := fan.Stats(); got != want {
		t.Fatalf("fanout catalogue built %+v, want %+v", got, want)
	}
	if f := fan.scans["sales"].fanout(); f != 17 {
		t.Fatalf("scan(sales) fans out to %d consumers, want 13 join sides + 4 filters", f)
	}

	// One station update moving station 5 and its 20 sales from R05 to
	// R06: its retraction and its insertion each look the station's sales
	// bucket up once for all 13 joins, and build each product once for
	// the unfiltered join and the one regional join that accepts it.
	const k = 20
	mod := ivm.Mod{Kind: ivm.ModUpdate, Key: []storage.Value{storage.I(5)}, Row: storage.Row{storage.I(5), storage.S(regionName(6))}}
	if err := fan.Ingest("stations", mod); err != nil {
		t.Fatal(err)
	}
	if st := fan.Stats(); st.Probes != 2 || st.Products != 2*k {
		t.Fatalf("a station update with %d sales made %d probes and %d products, want 2 and %d", k, st.Probes, st.Products, 2*k)
	}
}

// TestCheckpointRecover crashes a handle mid-stream and recovers it
// from its snapshot plus WAL replay; the recovered view must match an
// undisturbed control at every subsequent step.
func TestCheckpointRecover(t *testing.T) {
	query := equivalenceQueries[1]
	db := testDB(t)
	g := NewGraph(db)
	p := newPair(t, db, g, query)
	wal := ivm.NewWAL()
	p.h.AttachWAL(wal)
	p.h.SetNamespace("test/view")
	p.h.Checkpoint()

	mu := newMutator(11)
	drains := rand.New(rand.NewSource(5))
	step := func(ctx string) {
		tables, mods := mu.step()
		for i, mod := range mods {
			mod.Alias = aliasFor(p.m, tables[i])
			p.apply(tables[i], mod)
		}
		aliases := p.m.Aliases()
		alias := aliases[drains.Intn(len(aliases))]
		pend := p.m.Pending()
		for i, a := range aliases {
			if a == alias && pend[i] > 0 {
				p.drain(alias, 1+drains.Intn(pend[i]))
			}
		}
		p.check(ctx)
	}

	for i := 0; i < 8; i++ {
		step(fmt.Sprintf("pre-checkpoint step %d", i))
	}
	p.h.Checkpoint()
	if err := wal.TruncateThrough(p.h.TipLSN()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		step(fmt.Sprintf("post-checkpoint step %d", i))
	}

	// Crash: wipe the volatile per-view state and recover.
	if err := p.h.Recover(); err != nil {
		t.Fatal(err)
	}
	p.check("after recovery")
	for i := 0; i < 8; i++ {
		step(fmt.Sprintf("post-recovery step %d", i))
	}
}

// TestTrimWatermark garbage-collects below the durable watermark — the
// trim after a checkpoint at full coverage empties the sink's delta log
// and consolidates join state — and proves maintenance stays correct
// afterwards.
func TestTrimWatermark(t *testing.T) {
	query := equivalenceQueries[1]
	db := testDB(t)
	g := NewGraph(db)
	p := newPair(t, db, g, query)
	mu := newMutator(17)
	drains := rand.New(rand.NewSource(23))
	step := func(ctx string) {
		tables, mods := mu.step()
		for i, mod := range mods {
			mod.Alias = aliasFor(p.m, tables[i])
			p.apply(tables[i], mod)
		}
		aliases := p.m.Aliases()
		alias := aliases[drains.Intn(len(aliases))]
		pend := p.m.Pending()
		for i, a := range aliases {
			if a == alias && pend[i] > 0 {
				p.drain(alias, 1+drains.Intn(pend[i]))
			}
		}
		p.check(ctx)
	}
	for i := 0; i < 20; i++ {
		step(fmt.Sprintf("pre-trim step %d", i))
	}
	if err := p.h.Refresh(); err != nil {
		t.Fatal(err)
	}
	if err := p.m.Refresh(); err != nil {
		t.Fatal(err)
	}
	if len(p.h.log.deltas) == 0 {
		t.Fatal("twenty steps of drains left nothing logged for the trim to drop")
	}
	p.h.Checkpoint()
	before := g.Stats().StateRows
	g.Trim()
	if n := len(p.h.log.deltas); n != 0 {
		t.Fatalf("log not emptied by a trim after a checkpoint at full coverage: %d deltas", n)
	}
	after := g.Stats().StateRows
	if after >= before {
		t.Fatalf("trim did not consolidate join state: %d -> %d entries", before, after)
	}
	for i := 0; i < 20; i++ {
		step(fmt.Sprintf("post-trim step %d", i))
	}
}

// TestSignatures pins the canonical EXPLAIN surface: alias-insensitive,
// conjunct-order-insensitive signatures that end at the view's top
// operator, and the SELECT list apart from them as the sink's projection.
func TestSignatures(t *testing.T) {
	db := testDB(t)
	g := NewGraph(db)
	q1 := "SELECT SUM(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region = 'EAST'"
	q2 := "SELECT SUM(x.amount) FROM sales AS x, stations AS y WHERE y.region = 'EAST' AND x.station = y.stationkey"
	p1, err := ivm.PlanView(q1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ivm.PlanView(q2)
	if err != nil {
		t.Fatal(err)
	}
	s1, sink1, err := Signatures(p1, g.schemaOf)
	if err != nil {
		t.Fatal(err)
	}
	s2, sink2, err := Signatures(p2, g.schemaOf)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(s1, "\n") != strings.Join(s2, "\n") || sink1 != sink2 {
		t.Fatalf("alias/order-insensitive signatures diverged:\n%v %s\n%v %s", s1, sink1, s2, sink2)
	}
	want := "join(scan(sales), scan(stations), on=[sales.station=stations.stationkey], rwhere=[stations.region = 'EAST'])"
	if len(s1) != 3 || s1[2] != want {
		t.Fatalf("operator list %v does not end at the canonical join %q", s1, want)
	}
	if sink1 != "project [sales.amount]" {
		t.Fatalf("sink projection %q, want the canonical SELECT list", sink1)
	}
	// What Subscribe interns is what Signatures lists.
	h, err := g.Subscribe(p1)
	if err != nil {
		t.Fatal(err)
	}
	if h.top.sig() != want {
		t.Fatalf("subscribed under top operator %q, want %q", h.top.sig(), want)
	}
	checkNodesAre(t, g, s1)
}

// checkNodesAre fails unless the graph's operators are exactly those the
// signature list names.
func checkNodesAre(t *testing.T, g *Graph, sigs []string) {
	t.Helper()
	var got []string
	for _, n := range sortedByKey(g.nodes) {
		got = append(got, n.sig())
	}
	want := slices.Clone(sigs)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("graph holds operators %v, Signatures listed %v", got, want)
	}
}

// trimWorkAt replays one fixed 200-modification stream — inserts,
// deletes and in-place updates confined to the first 1,000 sales and
// their 50 stations — over a sales table of nSales rows, trimming every
// 8 steps, and returns the number of entries the trims examined.
func trimWorkAt(t *testing.T, nSales int) uint64 {
	t.Helper()
	const rowsPerStation = 20
	db := sizedDB(t, nSales, rowsPerStation)
	g := NewGraph(db)
	p, err := ivm.PlanView(trimBenchQuery)
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.Subscribe(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	live := rng.Perm(1000)
	nextKey := int64(1_000_000)
	for step := 1; step <= 200; step++ {
		var mod ivm.Mod
		switch rng.Intn(3) {
		case 0:
			mod = ivm.Mod{Kind: ivm.ModInsert, Row: storage.Row{storage.I(nextKey), storage.I(int64(rng.Intn(50))), storage.F(float64(1 + rng.Intn(9)))}}
			nextKey++
		case 1:
			key := int64(live[len(live)-1])
			live = live[:len(live)-1]
			mod = ivm.Mod{Kind: ivm.ModDelete, Key: []storage.Value{storage.I(key)}}
		case 2:
			key := int64(live[rng.Intn(len(live))])
			mod = ivm.Mod{Kind: ivm.ModUpdate, Key: []storage.Value{storage.I(key)},
				Row: storage.Row{storage.I(key), storage.I(key / rowsPerStation), storage.F(float64(10 + rng.Intn(9)))}}
		}
		if err := g.Ingest("sales", mod); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) > 0 { // lag: some steps leave a backlog across a trim
			if err := h.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
		if step%8 == 0 {
			h.Checkpoint()
			g.Trim()
		}
	}
	return g.Stats().TrimVisited
}

// TestTrimWorkIndependentOfTableSize pins the GC cost bound as an exact
// count: the same modification stream makes trims examine the same
// number of entries whether sales holds 1,000 rows or 20,000.
func TestTrimWorkIndependentOfTableSize(t *testing.T) {
	small, large := trimWorkAt(t, 1_000), trimWorkAt(t, 20_000)
	if small == 0 || small != large {
		t.Fatalf("trims examined %d entries over 1,000 rows, %d over 20,000", small, large)
	}
}

// TestRetractedAmountLeavesNoRounding: a retracted amount takes its
// rounding with it, on both engines, every modification drained on its
// own. Beside a 1, a 1e300 sale inserted and deleted again leaves SUM at
// 1, where summing in arrival order left 0; an infinite one leaves a
// finite SUM, where it left NaN. Both agree with the query computed from
// scratch, through the join and over sales alone.
func TestRetractedAmountLeavesNoRounding(t *testing.T) {
	for _, query := range []string{
		"SELECT SUM(s.amount), COUNT(*) FROM sales AS s WHERE s.salekey >= 100",
		"SELECT st.region, SUM(s.amount), AVG(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND s.salekey >= 100 GROUP BY st.region",
	} {
		for _, big := range []float64{1e300, math.Inf(1)} {
			db := testDB(t)
			p := newPair(t, db, NewGraph(db), query)
			for _, mod := range []ivm.Mod{
				{Kind: ivm.ModInsert, Row: storage.Row{storage.I(100), storage.I(1), storage.F(big)}},
				{Kind: ivm.ModInsert, Row: storage.Row{storage.I(101), storage.I(1), storage.F(1)}},
				{Kind: ivm.ModDelete, Key: []storage.Value{storage.I(100)}},
			} {
				mod.Alias = "s"
				p.apply("sales", mod)
				p.drain("s", 1)
			}
			p.check(fmt.Sprintf("%s after %v", query, big))
			rows := p.h.Result()
			if len(rows) != 1 || rows[0][len(rows[0])-2].Float() != 1 {
				t.Fatalf("%s: %v inserted and deleted beside a 1 leaves %v, want a SUM of 1", query, big, rows)
			}
			if got, want := canonical(rows), recompute(t, db, query); got != want {
				t.Fatalf("%s after %v: maintained %s, recomputed %s", query, big, got, want)
			}
		}
	}
}

// fanoutCatalogue is the benchmark's 24-view fanout catalogue over a
// regionalDB of 12 regions: 12 regional aggregates, 4 GROUP BY variants
// over the unfiltered join, 4 regional row lists repeating the first
// four regions, 4 sales-only filters.
func fanoutCatalogue() []string {
	var catalogue []string
	for r := 0; r < 12; r++ {
		catalogue = append(catalogue, regionalQuery(regionName(r)))
	}
	for _, aggs := range []string{"SUM(s.amount), COUNT(*)", "MIN(s.amount), MAX(s.amount)", "AVG(s.amount)", "COUNT(*)"} {
		catalogue = append(catalogue, "SELECT st.region, "+aggs+" FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region")
	}
	for r := 0; r < 4; r++ {
		catalogue = append(catalogue, fmt.Sprintf("SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region = '%s'", regionName(r)))
	}
	for i := 0; i < 4; i++ {
		catalogue = append(catalogue, fmt.Sprintf("SELECT s.salekey, s.amount FROM sales AS s WHERE s.amount >= %d", 91+2*i))
	}
	return catalogue
}
