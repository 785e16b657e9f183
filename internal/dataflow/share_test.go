package dataflow

import (
	"slices"
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// subscribeQuery subscribes one view.
func subscribeQuery(t *testing.T, g *Graph, query string) *ViewHandle {
	t.Helper()
	p, err := ivm.PlanView(query)
	if err != nil {
		t.Fatal(err)
	}
	h, err := g.Subscribe(p)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestStuckReaderHoldsBackOnlyItsLog: a view that stops draining holds
// back the delta log of its own top operator and no other. Its twin over
// the same join keeps draining, and starts each walk at the log's end —
// never over the stretch it has covered — while the log keeps every delta
// the stuck view's cursors do not cover; the view over sales alone reads
// another operator's log, which every trim empties. Once the stuck view
// drains, the next trim empties its log too.
func TestStuckReaderHoldsBackOnlyItsLog(t *testing.T) {
	db := testDB(t)
	g := NewGraph(db)
	stuck := subscribeQuery(t, g, equivalenceQueries[1])
	twin := subscribeQuery(t, g, equivalenceQueries[1])
	solo := subscribeQuery(t, g, "SELECT station, AVG(amount) FROM sales GROUP BY station")
	if stuck.log != twin.log || solo.log == twin.log {
		t.Fatal("the twins must read one log and the view over sales another")
	}
	mu := newMutator(61)
	for step := 0; step < 12; step++ {
		tables, mods := mu.step()
		for i, mod := range mods {
			applyLive(t, db, tables[i], mod)
			if err := g.Ingest(tables[i], mod); err != nil {
				t.Fatal(err)
			}
		}
		for _, h := range []*ViewHandle{twin, solo} {
			if err := h.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
		held := len(twin.log.deltas)
		g.Trim()
		if len(solo.log.deltas) != 0 {
			t.Fatalf("step %d: the stuck view held back another operator's log: %d deltas", step, len(solo.log.deltas))
		}
		if len(twin.log.deltas) != held {
			t.Fatalf("step %d: the trim dropped %d deltas the stuck view has not drained", step, held-len(twin.log.deltas))
		}
		if twin.from != len(twin.log.deltas) || stuck.from != 0 {
			t.Fatalf("step %d: walks start at %d (twin) and %d (stuck) of %d, want the end and the start",
				step, twin.from, stuck.from, len(twin.log.deltas))
		}
		checkGraphInvariants(t, "stuck view", g)
	}
	if len(twin.log.deltas) == 0 {
		t.Fatal("twelve steps logged nothing on the join")
	}
	if err := stuck.Refresh(); err != nil {
		t.Fatal(err)
	}
	g.Trim()
	if st := g.Stats(); st.RetainedDeltas != 0 || renderRows(stuck.Result()) != renderRows(twin.Result()) {
		t.Fatalf("the unstuck view left %d deltas, or disagrees with its twin", st.RetainedDeltas)
	}
}

// TestScanSharesLiveRows: a base row is held once. The scan keeps no
// copy of its table: its present output is the live table's own rows,
// and in the serial broker's order — the live change, then Graph.Ingest —
// an inserted or updated row is logged for the sink as the live table's
// own, and a deleted or replaced one as the row the live change
// displaced.
func TestScanSharesLiveRows(t *testing.T) {
	db := testDB(t)
	g := NewGraph(db)
	h := subscribeQuery(t, g, "SELECT salekey, station, amount FROM sales")
	sales, err := db.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	keyOf := func(k int64) storage.Value { return storage.I(k) }
	same := func(a, b storage.Row) bool { return a != nil && b != nil && &a[0] == &b[0] }
	var current []storage.Row
	g.scans["sales"].current(&visitor{fn: func(row storage.Row, _ int64, _ bool, _ []uint64) { current = append(current, row) }})
	for _, row := range current {
		if !same(row, sales.Stored(keyOf(row[0].Int()))) {
			t.Fatalf("the scan reads sale %v apart from the live row", row)
		}
	}
	if len(current) != sales.Len() {
		t.Fatalf("the scan reads %d rows of the live table's %d", len(current), sales.Len())
	}
	sale := func(key, station int64, amount float64) storage.Row {
		return storage.Row{storage.I(key), storage.I(station), storage.F(amount)}
	}
	key := func(k int64) []storage.Value { return []storage.Value{storage.I(k)} }
	for _, mod := range []ivm.Mod{
		{Kind: ivm.ModInsert, Row: sale(100, 1, 5)},
		{Kind: ivm.ModUpdate, Key: key(100), Row: sale(100, 2, 6)},
		{Kind: ivm.ModUpdate, Key: key(3), Row: sale(3, 4, 7)},
		{Kind: ivm.ModDelete, Key: key(100)},
	} {
		var k int64
		if mod.Kind == ivm.ModInsert {
			k = mod.Row[0].Int()
		} else {
			k = mod.Key[0].Int()
		}
		old := sales.Stored(keyOf(k))
		applyLive(t, db, "sales", mod)
		if err := g.Ingest("sales", mod); err != nil {
			t.Fatal(err)
		}
		n := len(h.log.deltas)
		switch last := h.log.deltas[n-1]; mod.Kind {
		case ivm.ModInsert:
			if !same(last.Row, sales.Stored(keyOf(k))) {
				t.Fatalf("sale %d is logged as a row of its own", k)
			}
		case ivm.ModUpdate:
			if !same(h.log.deltas[n-2].Row, old) || !same(last.Row, sales.Stored(keyOf(k))) {
				t.Fatalf("the update of sale %d is logged apart from the rows it displaced and wrote", k)
			}
		case ivm.ModDelete:
			if !same(last.Row, old) {
				t.Fatalf("the delete of sale %d is logged apart from the row it displaced", k)
			}
		}
	}
	if err := h.Refresh(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestRefusesUnreflectedMods: Graph.Ingest must follow its
// modification's write to the live table. An insert, a delete and an
// update with no matching live write, and an insert ingested after a later
// live write to its key, are each refused, and leave the graph's counts,
// the scan's ingest log and every delta log as they were.
func TestIngestRefusesUnreflectedMods(t *testing.T) {
	db := testDB(t)
	g := NewGraph(db)
	subscribeQuery(t, g, equivalenceQueries[1])
	subscribeQuery(t, g, "SELECT salekey, station, amount FROM sales")
	sale := func(key, station int64, amount float64) storage.Row {
		return storage.Row{storage.I(key), storage.I(station), storage.F(amount)}
	}
	key := func(k int64) []storage.Value { return []storage.Value{storage.I(k)} }
	applyLive(t, db, "sales", ivm.Mod{Kind: ivm.ModInsert, Row: sale(100, 1, 5)})
	applyLive(t, db, "sales", ivm.Mod{Kind: ivm.ModUpdate, Key: key(100), Row: sale(100, 2, 6)})
	sc := g.scans["sales"]
	logLens := func() []int {
		var out []int
		for _, l := range g.logs {
			out = append(out, len(l.deltas))
		}
		return out
	}
	for _, tc := range []struct {
		name string
		mod  ivm.Mod
	}{
		{"an insert with no live write", ivm.Mod{Kind: ivm.ModInsert, Row: sale(300, 1, 5)}},
		{"a delete with no live write", ivm.Mod{Kind: ivm.ModDelete, Key: key(3)}},
		{"an update with no live write", ivm.Mod{Kind: ivm.ModUpdate, Key: key(4), Row: sale(4, 1, 2)}},
		{"an insert after a later live write to its key", ivm.Mod{Kind: ivm.ModInsert, Row: sale(100, 1, 5)}},
	} {
		stats, mods, logs := g.Stats(), sc.mods, logLens()
		if err := g.Ingest("sales", tc.mod); err == nil {
			t.Errorf("%s was ingested", tc.name)
		}
		if g.Stats() != stats || sc.mods != mods || !slices.Equal(logLens(), logs) {
			t.Errorf("refusing %s moved the graph: stats %+v -> %+v, ingest log %d -> %d, delta logs %v -> %v",
				tc.name, stats, g.Stats(), mods, sc.mods, logs, logLens())
		}
	}
}

// TestIngestChargesLiveTableNothing: Graph.Ingest looks the live table up
// to share its row, and charges the live database no work unit for it —
// the counters read what the live changes cost, with or without a graph.
func TestIngestChargesLiveTableNothing(t *testing.T) {
	db := testDB(t)
	g := NewGraph(db)
	subscribeQuery(t, g, equivalenceQueries[1])
	subscribeQuery(t, g, "SELECT region, COUNT(*) FROM stations GROUP BY region")
	counters := func() []storage.Stats {
		var out []storage.Stats
		for _, name := range []string{"sales", "stations"} {
			tbl, err := db.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, *tbl.Stats())
		}
		return out
	}
	mu := newMutator(67)
	for step := 0; step < 10; step++ {
		tables, mods := mu.step()
		for i, mod := range mods {
			applyLive(t, db, tables[i], mod)
			before := counters()
			if err := g.Ingest(tables[i], mod); err != nil {
				t.Fatal(err)
			}
			if after := counters(); after[0] != before[0] || after[1] != before[1] {
				t.Fatalf("step %d: ingesting %v on %s moved the live counters %+v -> %+v", step, mod, tables[i], before, after)
			}
		}
	}
}
