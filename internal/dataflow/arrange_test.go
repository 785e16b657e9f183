package dataflow

import (
	"math"
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
// stations — so state and trim work carry no per-join term.
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
// string, and a probe takes memory from the graph's arena only for a
// product some join accepts.
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
// tail entries however far the other sink is ahead.
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
}

// TestIngestAllocsIndependentOfPartners: a station update allocates
// about the same whether 8 sales or 64 sit at the station. Each of its
// two deltas probes the station's sales bucket once and takes every
// product's row and coordinate from the graph's arena, so what a single
// update allocates is whether a chunk runs out under it: the test
// averages 64 steady-state updates, each folded, checkpointed and
// trimmed before the next, so the delta log and the buckets keep their
// capacity. Eight times the products refill the value chunk eight times
// as often — less than one allocation per update more at 64.
func TestIngestAllocsIndependentOfPartners(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	const warm, measured = 4, 64
	meanAllocs := func(rowsPerStation int) float64 {
		g := NewGraph(sizedDB(t, 16*rowsPerStation, rowsPerStation))
		handles := subscribeRegional(t, g, 0)
		var total uint64
		for round := 0; round < warm+measured; round++ {
			mod := ivm.Mod{
				Kind: ivm.ModUpdate,
				Key:  []storage.Value{storage.I(7)},
				Row:  storage.Row{storage.I(7), storage.S([]string{"EAST", "WEST"}[round%2])},
			}
			allocs := mallocsOf(func() {
				if err := g.Ingest("stations", mod); err != nil {
					t.Fatal(err)
				}
			})
			if round >= warm {
				total += allocs
			}
			if got := len(handles[0].log.deltas); got != 2*rowsPerStation {
				t.Fatalf("a station update logged %d deltas for the sink, want %d", got, 2*rowsPerStation)
			}
			settle(t, handles)
			g.Trim()
		}
		return float64(total) / measured
	}
	few, many := meanAllocs(8), meanAllocs(64)
	t.Logf("a station update allocates %.2f times on average over 8 sales, %.2f over 64", few, many)
	if few > 4 || many > 4 || math.Abs(many-few) > 1 {
		t.Fatalf("a station update allocated %.2f times on average over 8 sales, %.2f over 64; want at most 4 each, within 1 of each other",
			few, many)
	}
}

// TestArrangedProductsOwnTheirRows: the three-way view arranges its
// inner join's output by region. The join hands out its products as
// windows of the graph's arena chunks; the arrangement keeps copies, so after
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
