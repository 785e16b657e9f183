package dataflow

import (
	"strings"
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
	"abivm/internal/testenv"
)

const salesByStation = "arrange(scan(sales), [sales.station])"

// TestArrangementSharedAcrossJoins pins the sharing of join inputs as
// exact counts: the unfiltered view plus N regional-filter views build
// N+1 joins over one arrangement of sales and one of stations — a
// regional filter is its join's side residual, not a filtered copy of
// stations — so state and trim work carry no per-join term, and each
// arrangement lives exactly as long as some join side reads it.
func TestArrangementSharedAcrossJoins(t *testing.T) {
	const nSales, rowsPerStation, regions, updates = 2_400, 20, 12, 128
	const nStations = nSales / rowsPerStation
	var arrangeWork uint64 // what a round's trim examines
	for _, n := range []int{1, 4, 12} {
		g := NewGraph(regionalDB(t, nSales, rowsPerStation, regionNames(regions)))
		handles := subscribeRegional(t, g, n)
		const rightRows = nStations
		st := g.Stats()
		if st.StateRows != nSales+rightRows {
			t.Fatalf("N=%d: %d state rows, want |sales| %d + right sides %d", n, st.StateRows, nSales, rightRows)
		}
		if st.Arrangements != 2 || st.ArrangementHits != uint64(2*n) {
			t.Fatalf("N=%d: %d arrangements, %d hits; want 2 and %d", n, st.Arrangements, st.ArrangementHits, 2*n)
		}
		sales := g.arrs[salesByStation]
		if sales == nil || sales.ports() != n+1 {
			t.Fatalf("N=%d: %s missing or not read by all %d joins: %v", n, salesByStation, n+1, sales)
		}

		next := 0
		updateRound(t, g, updates, rowsPerStation, &next)
		settle(t, handles)
		before := g.Stats()
		if before.StateRows != nSales+rightRows+2*updates {
			t.Fatalf("N=%d: %d updates grew state to %d rows, want %d", n, updates, before.StateRows, nSales+rightRows+2*updates)
		}
		g.Trim()
		after := g.Stats()
		if after.RetainedDeltas != 0 {
			t.Fatalf("N=%d: logs trimmed at full coverage still hold %d deltas", n, after.RetainedDeltas)
		}
		if after.StateRows != nSales+rightRows {
			t.Fatalf("N=%d: trimmed to %d state rows, want %d", n, after.StateRows, nSales+rightRows)
		}
		work := after.TrimVisited - before.TrimVisited
		if arrangeWork == 0 {
			arrangeWork = work
		}
		if work == 0 || work != arrangeWork {
			t.Fatalf("N=%d: trim examined %d entries, %d at N=1", n, work, arrangeWork)
		}

		// A subscribe that fails once its join is built (the projection's
		// string arithmetic does not bind) leaves nothing behind.
		p, err := ivm.PlanView("SELECT s.amount + st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region = 'NOWHERE'")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Subscribe(p); err == nil || !strings.Contains(err.Error(), "string operands") {
			t.Fatalf("N=%d: ill-typed projection subscribed: %v", n, err)
		}
		if got := g.Stats(); got.Arrangements != after.Arrangements || got.Nodes != after.Nodes ||
			got.StateRows != after.StateRows || sales.ports() != n+1 {
			t.Fatalf("N=%d: failed subscribe left state behind: %+v, was %+v; %d ports", n, got, after, sales.ports())
		}
		checkGraphInvariants(t, "after failed subscribe", g)

		// The view that created the arrangement leaves first; it stays for
		// the others, down to the last regional view.
		for _, h := range handles[:n] {
			g.Release(h)
		}
		if g.arrs[salesByStation] != sales || sales.ports() != 1 {
			t.Fatalf("N=%d: arrangement not kept for its last reader: %d ports", n, sales.ports())
		}
		if got, want := g.Stats().StateRows, nSales+nStations; got != want {
			t.Fatalf("N=%d: one regional view left holds %d state rows, want %d", n, got, want)
		}
		checkGraphInvariants(t, "one view left", g)
		g.Release(handles[n])
		if st := g.Stats(); st.StateRows != 0 || st.Arrangements != 0 || st.Nodes != 0 {
			t.Fatalf("N=%d: released graph keeps %+v", n, st)
		}
	}
}

// TestIngestAllocsIndependentOfSharingJoins: one sales update — of a
// sale the unfiltered and the R00 join emit for, whatever else is
// subscribed — allocates the same with 2 joins reading sales as with 13:
// one key string and one tail slot per delta, not per join.
func TestIngestAllocsIndependentOfSharingJoins(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	const rowsPerStation, regions = 20, 12
	ingestAllocs := func(regional int) (allocs uint64) {
		g := NewGraph(regionalDB(t, 2_400, rowsPerStation, regionNames(regions)))
		subscribeRegional(t, g, regional)
		for round := 0; round < 4; round++ {
			mod := updateSale(7, rowsPerStation, float64(10+round)) // station 0, region R00
			allocs = mallocsOf(func() {
				if err := g.Ingest("sales", mod); err != nil {
					t.Fatal(err)
				}
			})
		}
		return allocs
	}
	if few, many := ingestAllocs(1), ingestAllocs(regions); few != many {
		t.Fatalf("one sales update allocated %d times under 2 joins, %d under 13", few, many)
	}
}

// TestIngestAllocsIndependentOfFilteredJoins: beside the unfiltered
// view, 1 regional view or 12 — one join each, every one reading the same
// two unfiltered arrangements — and a sales update and a station update
// each allocate the same. A delta looks its opposite bucket up once for
// all the joins and builds each product once, however many regional
// joins emit it too; both updates touch station 5, which moves between
// R05 and R06, regions the single R00 view never sees.
func TestIngestAllocsIndependentOfFilteredJoins(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	const rowsPerStation, regions, station = 20, 12, 5
	ingestAllocs := func(regional int) (sale, moved uint64) {
		g := NewGraph(regionalDB(t, 2_400, rowsPerStation, regionNames(regions)))
		handles := subscribeRegional(t, g, regional)
		ingest := func(table string, mod ivm.Mod) uint64 {
			return mallocsOf(func() {
				if err := g.Ingest(table, mod); err != nil {
					t.Fatal(err)
				}
			})
		}
		// Steady state: each round's deltas are folded, checkpointed and
		// trimmed before the next.
		for round := 0; round < 4; round++ {
			sale = ingest("sales", updateSale(station*rowsPerStation+3, rowsPerStation, float64(10+round)))
			moved = ingest("stations", ivm.Mod{
				Kind: ivm.ModUpdate,
				Key:  []storage.Value{storage.I(station)},
				Row:  storage.Row{storage.I(station), storage.S(regionName(station + 1 - round%2))},
			})
			settle(t, handles)
			g.Trim()
		}
		return sale, moved
	}
	fewSale, fewMoved := ingestAllocs(1)
	manySale, manyMoved := ingestAllocs(regions)
	if fewSale != manySale || fewMoved != manyMoved {
		t.Fatalf("a sales update allocated %d times beside 1 regional join, %d beside %d; a station update %d and %d",
			fewSale, manySale, regions, fewMoved, manyMoved)
	}
}

// TestArrangementsListing pins the EXPLAIN order on a three-way join:
// the inner join's two inputs, then the outer join's — whose left input
// is the inner join itself, arranged by the outer key.
func TestArrangementsListing(t *testing.T) {
	p, err := ivm.PlanView(propQueries[3])
	if err != nil {
		t.Fatal(err)
	}
	got, err := Arrangements(p, NewGraph(propDB(t)).schemaOf)
	if err != nil {
		t.Fatal(err)
	}
	inner := "join(scan(sales), scan(stations), on=[sales.station=stations.stationkey])"
	want := []string{
		salesByStation,
		"arrange(scan(stations), [stations.stationkey])",
		"arrange(" + inner + ", [stations.region])",
		"arrange(scan(regions), [regions.region])",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("arrangements:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestArrangementOnDeltaAllocs: a delta whose join key the arrangement
// already holds, and whose partner opposite no join accepts, allocates
// nothing once its bucket's tail has room — the key is probed and
// bucketed as bytes, only a delta that opens a bucket makes the key a
// string, and a probe allocates its products' arrays only when it builds
// one.
func TestArrangementOnDeltaAllocs(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	const rowsPerStation, regions = 20, 12
	g := NewGraph(regionalDB(t, 2_400, rowsPerStation, regionNames(regions)))
	p, err := ivm.PlanView(regionalQuery(regionName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Subscribe(p); err != nil {
		t.Fatal(err)
	}
	sales := g.arrs[salesByStation]
	// Station 1 lies in R01: sales holds its bucket, and the R00 join's
	// rwhere rejects the station row opposite.
	b := sales.buckets[storage.EncodeKey(storage.I(1))]
	if b == nil || sales.ports() != 1 {
		t.Fatalf("sales bucket of station 1: %v, %d ports", b, sales.ports())
	}
	d := Delta{Row: storage.Row{storage.I(-1), storage.I(1), storage.F(1)}, W: 1, Coord: Coord{1}}
	roomy := 0
	for i := 0; i < 12; i++ {
		hadRoom := len(b.tail) < cap(b.tail)
		if n := mallocsOf(func() { sales.onDelta(d) }); hadRoom && n != 0 {
			t.Fatalf("delta %d into an existing bucket with tail room allocated %d times, want 0", i, n)
		}
		if hadRoom {
			roomy++
		}
	}
	if roomy == 0 || len(b.tail) != 12 || len(sales.touched) != 1 || sales.touched[0] != b {
		t.Fatalf("%d deltas had tail room; tail %d, touched %d", roomy, len(b.tail), len(sales.touched))
	}
}

// TestTrimWatermarkIsLowestSink: the graph computes the watermark from its
// own sinks. Two sinks over one join checkpoint at different cursors; Trim
// consolidates exactly the updates the lower one covers, the rest stay as
// tail entries however far the other sink is ahead; releasing the lower
// sink lets the next Trim advance to the remaining one's cursors.
func TestTrimWatermarkIsLowestSink(t *testing.T) {
	const nSales, rowsPerStation, first, second = 400, 20, 10, 6
	g := NewGraph(sizedDB(t, nSales, rowsPerStation))
	var sinks [2]*ViewHandle
	for i, q := range []string{trimBenchQuery, "SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey"} {
		p, err := ivm.PlanView(q)
		if err != nil {
			t.Fatal(err)
		}
		if sinks[i], err = g.Subscribe(p); err != nil {
			t.Fatal(err)
		}
	}
	lower, upper := sinks[0], sinks[1]
	base := g.Stats()
	if base.Nodes != 3 || base.Views != 2 {
		t.Fatalf("two views over one join built %d nodes under %d sinks, want 3 and 2", base.Nodes, base.Views)
	}
	// A sink that never checkpointed holds the watermark at its
	// subscribe-time cursors, below every update.
	next := 0
	updateRound(t, g, first, rowsPerStation, &next)
	settle(t, []*ViewHandle{upper})
	g.Trim()
	if got, want := g.Stats().StateRows, base.StateRows+2*first; got != want {
		t.Fatalf("trim with one sink never checkpointed left %d state rows, want all %d", got, want)
	}
	settle(t, []*ViewHandle{lower})
	updateRound(t, g, second, rowsPerStation, &next)
	settle(t, []*ViewHandle{upper})
	g.Trim()
	if got, want := g.Stats().StateRows, base.StateRows+2*second; got != want {
		t.Fatalf("trim at the lower sink's cursors left %d state rows, want %d: the %d updates only the upper sink covers", got, want, second)
	}
	g.Release(lower)
	g.Trim()
	if st := g.Stats(); st.StateRows != base.StateRows || st.Views != 1 || st.Nodes != base.Nodes {
		t.Fatalf("trim after releasing the lower sink: %d state rows, %d sinks, %d nodes; want %d, 1, %d", st.StateRows, st.Views, st.Nodes, base.StateRows, base.Nodes)
	}
	checkGraphInvariants(t, "after release and trim", g)
}

// TestIngestAllocsIndependentOfPartners: one station update allocates
// the same whether 8 sales or 64 sit at the station. Each of its two
// deltas probes the station's sales bucket once, and a probe builds all
// its products in one array and gives those with a base partner one
// shared coordinate, so the allocations count probes, not products.
func TestIngestAllocsIndependentOfPartners(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	ingestAllocs := func(rowsPerStation int) (allocs uint64) {
		g := NewGraph(sizedDB(t, 16*rowsPerStation, rowsPerStation))
		handles := subscribeRegional(t, g, 0)
		// Steady state: each round's deltas are folded, checkpointed and
		// trimmed, so the delta log and the buckets keep their capacity.
		for round := 0; round < 4; round++ {
			mod := ivm.Mod{
				Kind: ivm.ModUpdate,
				Key:  []storage.Value{storage.I(7)},
				Row:  storage.Row{storage.I(7), storage.S([]string{"EAST", "WEST"}[round%2])},
			}
			allocs = mallocsOf(func() {
				if err := g.Ingest("stations", mod); err != nil {
					t.Fatal(err)
				}
			})
			if got := len(handles[0].log.deltas); got != 2*rowsPerStation {
				t.Fatalf("a station update logged %d deltas for the sink, want %d", got, 2*rowsPerStation)
			}
			settle(t, handles)
			g.Trim()
		}
		return allocs
	}
	if few, many := ingestAllocs(8), ingestAllocs(64); few != many {
		t.Fatalf("one station update allocated %d times over 8 sales, %d over 64", few, many)
	}
}

// TestArrangedProductsOwnTheirRows: the three-way view arranges its
// inner join's output by region. The join hands out its products as
// windows of one array per probe; the arrangement keeps copies, so after
// a trim every base row it holds has its own array, capped at its length,
// and none is a product the join emitted.
func TestArrangedProductsOwnTheirRows(t *testing.T) {
	db := propDB(t)
	g := NewGraph(db)
	p, err := ivm.PlanView(propQueries[3])
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.Subscribe(p)
	if err != nil {
		t.Fatal(err)
	}
	inner := "join(scan(sales), scan(stations), on=[sales.station=stations.stationkey])"
	emitted := &recorder{}
	g.nodes[inner].addOut(emitted)
	gen := newPropGen(34)
	for step := 0; step < 40; step++ {
		for _, tm := range gen.step() {
			applyLive(t, db, tm.table, tm.mod)
			if err := g.Ingest(tm.table, tm.mod); err != nil {
				t.Fatal(err)
			}
		}
	}
	settle(t, []*ViewHandle{h})
	g.Trim()
	a := g.arrs["arrange("+inner+", [stations.region])"]
	if a == nil || len(emitted.all) == 0 {
		t.Fatalf("arrangement %v; the inner join emitted %d products", a, len(emitted.all))
	}
	products := make(map[*storage.Value]bool, len(emitted.all))
	for _, d := range emitted.all {
		products[&d.Row[0]] = true
	}
	owners := make(map[*storage.Value]bool)
	rows := 0
	for _, b := range a.buckets {
		if len(b.tail) != 0 {
			t.Fatalf("bucket %q keeps %d tail entries after a full trim", b.key, len(b.tail))
		}
		for _, e := range b.base {
			rows++
			if cap(e.row) != len(e.row) {
				t.Fatalf("base row %v has capacity %d beyond its %d values", e.row, cap(e.row), len(e.row))
			}
			if products[&e.row[0]] {
				t.Fatalf("base row %v is the join's own product, not a copy", e.row)
			}
			if owners[&e.row[0]] {
				t.Fatalf("base row %v shares its array with another", e.row)
			}
			owners[&e.row[0]] = true
		}
	}
	if rows == 0 {
		t.Fatal("the arrangement holds no base rows")
	}
}
