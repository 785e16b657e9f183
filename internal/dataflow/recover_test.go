package dataflow

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// recoverPair is one view held twice: h on the graph whose sinks crash,
// twin on a graph fed the same modifications and drains that never
// crashes or trims.
type recoverPair struct {
	query   string
	h, twin *ViewHandle
}

// TestRecoverRebuildsFromGraph: a sink's recovery point is its cursors,
// and Recover rebuilds the content from the top operator's present output
// less the logged deltas those cursors do not cover. Sinks crash at
// random points — after trims, and with logs holding deltas their cursors
// do not cover — and each recovered view must equal its twin byte for
// byte, backlog included.
// The views: every equivalence query; a three-way join, whose outer
// arrangement holds the inner join's products; a table-free conjunct,
// which the join above the spine's first pair holds as its residual; a
// filter over a scan; and a sink that subscribes late to a log two
// readers already share. Two views read their joins through a summary of sales —
// the first equivalence query and an AVG grouped by station — so a
// rebuild folds the summaries the join's present output pairs with the
// stations' rows; the second draws its drains and crashes
// from a generator of its own, so the other sinks keep every seeded
// event on the step it has without it.
func TestRecoverRebuildsFromGraph(t *testing.T) {
	queries := append(slices.Clone(equivalenceQueries),
		propQueries[3], // three-way join
		propQueries[6], // table-free conjunct: the join's residual
		"SELECT s.salekey, s.amount FROM sales AS s WHERE s.amount > 6",
	)
	const threeWay, tableFree, filterScan = 5, 6, 7
	uncovered := 0
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 6151))
			live := propDB(t)
			crash, twin := NewGraph(live), NewGraph(live)
			subscribe := func(query string) *recoverPair {
				t.Helper()
				p, err := ivm.PlanView(query)
				if err != nil {
					t.Fatal(err)
				}
				rp := recoverPair{query: query}
				if rp.h, err = crash.Subscribe(p); err != nil {
					t.Fatal(err)
				}
				if rp.twin, err = twin.Subscribe(p); err != nil {
					t.Fatal(err)
				}
				return &rp
			}
			var sinks []*recoverPair
			for _, q := range queries {
				sinks = append(sinks, subscribe(q))
			}
			if j, ok := sinks[threeWay].h.top.(*joinNode); !ok || len(j.tables()) != 3 {
				t.Fatalf("three-way view's top operator is %T", sinks[threeWay].h.top)
			}
			if j, ok := sinks[tableFree].h.top.(*joinNode); !ok || len(j.where) == 0 {
				t.Fatalf("table-free conjunct's top operator is %T, not a join holding it as its residual", sinks[tableFree].h.top)
			}
			if f, ok := sinks[filterScan].h.top.(*filterNode); !ok {
				t.Fatalf("filter-over-scan view's top operator is %T", sinks[filterScan].h.top)
			} else if _, ok := f.child.(*scanNode); !ok {
				t.Fatalf("filter-over-scan view filters a %T", f.child)
			}
			// The co-reader shares sinks[1]'s log.
			sinks = append(sinks, subscribe(queries[1]))
			lateAt := 8 + rng.Intn(8)
			_ = 20 + rng.Intn(8) // an unused draw, so each seed keeps its schedule
			own := rand.New(rand.NewSource(seed * 7717))
			summarized := subscribe(summaryQueries[1])
			for _, rp := range []*recoverPair{sinks[0], summarized} {
				if !rp.h.summarized {
					t.Fatalf("%s does not read its join through a summary", rp.query)
				}
			}

			check := func(ctx string, rp *recoverPair) {
				t.Helper()
				if got, want := renderRows(rp.h.Result()), renderRows(rp.twin.Result()); got != want {
					t.Fatalf("%s: %s\nrecovered: %s\ntwin:      %s", ctx, rp.query, got, want)
				}
				if got, want := fmt.Sprint(rp.h.Pending()), fmt.Sprint(rp.twin.Pending()); got != want {
					t.Fatalf("%s: %s backlog %s, twin %s", ctx, rp.query, got, want)
				}
			}
			crashAt := func(ctx string, rp *recoverPair) {
				t.Helper()
				h := rp.h
				if slices.ContainsFunc(h.log.deltas, func(d Delta) bool {
					return !d.Coord.covered(h.cursors) && h.reads(d.Coord)
				}) {
					uncovered++
				}
				h.Recover()
				check(ctx+" recovered", rp)
			}

			gen := newPropGen(seed)
			for step := 0; step < 40; step++ {
				ctx := fmt.Sprintf("step %d", step)
				for _, tm := range gen.step() {
					applyLive(t, live, tm.table, tm.mod)
					for _, g := range []*Graph{crash, twin} {
						if g.scans[tm.table] != nil {
							if err := g.Ingest(tm.table, tm.mod); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				for _, rp := range append(sinks, summarized) {
					r := rng
					if rp == summarized {
						r = own
					}
					pend := rp.h.Pending()
					for i, alias := range rp.h.Aliases() {
						if pend[i] == 0 || r.Intn(3) == 0 {
							continue
						}
						k := 1 + r.Intn(pend[i])
						for _, h := range []*ViewHandle{rp.h, rp.twin} {
							if err := h.ProcessBatch(alias, k); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				if rng.Intn(2) == 0 {
					crash.Trim()
					checkGraphInvariants(t, ctx+" trimmed", crash)
				}
				for _, rp := range sinks {
					if rng.Intn(5) == 0 {
						crashAt(ctx, rp)
					}
					check(ctx, rp)
				}
				if own.Intn(5) == 0 {
					crashAt(ctx, summarized)
				}
				check(ctx, summarized)
				if step == lateAt {
					// A third reader of the log sinks[1] and the co-reader
					// share, holding deltas neither has drained.
					late := subscribe(queries[1])
					if late.h.log != sinks[1].h.log || len(late.h.log.readers) != 3 {
						t.Fatalf("late sink reads a log of %d readers, not the one sinks[1] shares", len(late.h.log.readers))
					}
					crashAt(ctx+" late", late)
					sinks = append(sinks, late)
				}
			}
		})
	}
	if uncovered == 0 {
		t.Fatal("no sink crashed while its log held a delta its cursors do not cover")
	}
}

// TestRebuildIgnoresSlotOrder: a rebuild walks the live tables in slot
// order, and no content depends on it. Churn frees low sales slots and
// fills them with new, higher keys, and moves sales between stations and
// stations between regions, so the sales table's slot order is not its
// key order. Then each shape — a filter over a scan, a join dispatched on
// a region literal, a join read through a summary with and without one,
// an unfiltered join and a three-way join — subscribes late to a graph
// that met the churn empty, with tails in its arrangements and deltas in
// its logs, and crashes and recovers between rounds of more churn. Each
// view equals the query recomputed over the live tables and a twin that
// subscribed before the churn on a graph of its own and never crashed.
func TestRebuildIgnoresSlotOrder(t *testing.T) {
	queries := []string{
		"SELECT s.salekey, s.amount FROM sales AS s WHERE s.amount > 6",
		"SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region = 'WEST'",
		"SELECT SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region = 'EAST'",
		"SELECT st.region, COUNT(*), SUM(s.amount), AVG(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region",
		"SELECT s.salekey, s.amount, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey",
		propQueries[3],
	}
	db := propDB(t)
	g, twinGraph := NewGraph(db), NewGraph(db)
	var twins []*ViewHandle
	for _, q := range queries {
		twins = append(twins, subscribeQuery(t, twinGraph, q))
	}
	rng := rand.New(rand.NewSource(11))
	live := make([]int64, 20)
	for i := range live {
		live[i] = int64(i)
	}
	next := int64(100)
	apply := func(table string, mod ivm.Mod) {
		applyLive(t, db, table, mod)
		for _, gr := range []*Graph{g, twinGraph} {
			if gr.scans[table] != nil {
				if err := gr.Ingest(table, mod); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sale := func(k int64) storage.Row {
		return storage.Row{storage.I(k), storage.I(int64(rng.Intn(6))), storage.F(float64(1+rng.Intn(12)) + rng.Float64()/4)}
	}
	churn := func() {
		slices.Sort(live)
		for _, k := range live[:3] { // the lowest keys hold the lowest slots
			apply("sales", ivm.Mod{Kind: ivm.ModDelete, Key: []storage.Value{storage.I(k)}})
		}
		live = live[3:]
		for range 3 { // into the slots just freed
			apply("sales", ivm.Mod{Kind: ivm.ModInsert, Row: sale(next)})
			live = append(live, next)
			next++
		}
		for range 3 { // maybe to another station
			k := live[rng.Intn(len(live))]
			apply("sales", ivm.Mod{Kind: ivm.ModUpdate, Key: []storage.Value{storage.I(k)}, Row: sale(k)})
		}
		for range 2 {
			st := int64(rng.Intn(6))
			apply("stations", ivm.Mod{Kind: ivm.ModUpdate, Key: []storage.Value{storage.I(st)},
				Row: storage.Row{storage.I(st), storage.S([]string{"EAST", "WEST"}[rng.Intn(2)])}})
		}
	}
	check := func(ctx string, views []*ViewHandle) {
		t.Helper()
		for i, h := range views {
			if err := twins[i].Refresh(); err != nil {
				t.Fatal(err)
			}
			if got, want := canonical(h.Result()), recompute(t, db, queries[i]); got != want {
				t.Fatalf("%s: %s\nmaintained\n%s\nrecomputed\n%s", ctx, queries[i], got, want)
			}
			if got, want := renderRows(h.Result()), renderRows(twins[i].Result()); got != want {
				t.Fatalf("%s: %s\nrebuilt: %s\ntwin:    %s", ctx, queries[i], got, want)
			}
		}
	}

	for range 4 {
		churn()
	}
	var keys []int64
	sales, err := db.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	sales.EachStored(func(r storage.Row) { keys = append(keys, r[0].Int()) })
	if slices.IsSorted(keys) {
		t.Fatalf("churn left the sales slots in key order: %v", keys)
	}
	var views []*ViewHandle
	for i, q := range queries {
		views = append(views, subscribeQuery(t, g, q))
		churn() // later views find tails and logged deltas the earlier ones left
		if i == 0 {
			g.Trim()
		}
	}
	j3, ok := views[5].top.(*joinNode)
	if _, filtered := views[0].top.(*filterNode); !filtered || views[1].top.(*joinNode).rlit == nil ||
		!views[2].summarized || !views[3].summarized || views[4].summarized || !ok || len(j3.tables()) != 3 {
		t.Fatal("the views are not the shapes named")
	}
	for _, h := range views {
		if err := h.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	check("late subscribers", views)
	for round := 0; round < 24; round++ {
		churn()
		for _, h := range views {
			if pend := h.Pending(); rng.Intn(2) == 0 && pend[0] > 0 {
				if err := h.ProcessBatch(h.Aliases()[0], 1+rng.Intn(pend[0])); err != nil {
					t.Fatal(err)
				}
			}
			h.Recover() // with a backlog the cursors do not cover
			if err := h.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
		if round%2 == 1 {
			g.Trim()
			checkGraphInvariants(t, fmt.Sprintf("round %d trimmed", round), g)
		}
		check(fmt.Sprintf("round %d recovered", round), views)
	}
}
