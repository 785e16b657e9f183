package dataflow

import (
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// subscribeQuery subscribes one view and takes its first checkpoint.
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
	if err := h.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestStuckReaderHoldsBackOnlyItsLog: a view that stops draining and
// checkpointing holds back the delta log of its own top operator and no
// other. Its twin over the same join keeps draining, and starts each walk
// at the log's end — never over the stretch it has covered — while the log
// keeps every delta since the stuck view's checkpoint; the view over sales
// alone reads another operator's log, which every trim empties. Once the
// stuck view drains and checkpoints, the next trim empties its log too.
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
			if err := h.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		held := len(twin.log.deltas)
		g.Trim()
		if len(solo.log.deltas) != 0 {
			t.Fatalf("step %d: the stuck view held back another operator's log: %d deltas", step, len(solo.log.deltas))
		}
		if len(twin.log.deltas) != held {
			t.Fatalf("step %d: the trim dropped %d deltas the stuck view has not checkpointed", step, held-len(twin.log.deltas))
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
	if err := stuck.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g.Trim()
	if st := g.Stats(); st.RetainedDeltas != 0 || renderRows(stuck.Result()) != renderRows(twin.Result()) {
		t.Fatalf("the unstuck view left %d deltas, or disagrees with its twin", st.RetainedDeltas)
	}
}

// TestScanSharesLiveRows: a base row is held once. The scan mirrors the
// live table's rows as they are, and in the serial broker's order — the
// live change, then Graph.Ingest — an inserted or updated row is the live
// table's own, in the mirror and in the delta logged for the sink. A
// modification ingested only after a later change to its key (a sharded
// broker routes a step's publishes at its end) keeps a copy of its own
// row, so a drain that covers it alone sees the row as it was inserted.
func TestScanSharesLiveRows(t *testing.T) {
	db := testDB(t)
	g := NewGraph(db)
	h := subscribeQuery(t, g, "SELECT salekey, station, amount FROM sales")
	sales, err := db.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	sc := g.scans["sales"]
	keyOf := func(k int64) []byte { return storage.AppendKey(nil, storage.I(k)) }
	mirrored := func(k int64) storage.Row { return sc.rows[sc.slots[string(keyOf(k))]] }
	shared := func(ctx string, k int64) {
		t.Helper()
		if live := sales.Stored(keyOf(k)); live == nil || &mirrored(k)[0] != &live[0] {
			t.Fatalf("%s: the scan mirrors sale %d as %v apart from the live row %v", ctx, k, mirrored(k), live)
		}
	}
	sale := func(key, station int64, amount float64) storage.Row {
		return storage.Row{storage.I(key), storage.I(station), storage.F(amount)}
	}
	key := func(k int64) []storage.Value { return []storage.Value{storage.I(k)} }
	shared("base row", 3)
	for _, mod := range []ivm.Mod{
		{Kind: ivm.ModInsert, Row: sale(100, 1, 5)},
		{Kind: ivm.ModUpdate, Key: key(100), Row: sale(100, 2, 6)},
		{Kind: ivm.ModUpdate, Key: key(3), Row: sale(3, 4, 7)},
	} {
		applyLive(t, db, "sales", mod)
		if err := g.Ingest("sales", mod); err != nil {
			t.Fatal(err)
		}
		k := mod.Row[0].Int()
		shared("after the live change", k)
		if d := h.log.deltas[len(h.log.deltas)-1]; &d.Row[0] != &mirrored(k)[0] {
			t.Fatalf("sale %d is logged as a row of its own", k)
		}
	}
	if err := h.Refresh(); err != nil {
		t.Fatal(err)
	}

	// Deferred: both live changes to a key land before the first ingest.
	deferred := []ivm.Mod{
		{Kind: ivm.ModInsert, Row: sale(200, 1, 5)},
		{Kind: ivm.ModUpdate, Key: key(200), Row: sale(200, 5, 9)},
		{Kind: ivm.ModInsert, Row: sale(201, 2, 4)},
		{Kind: ivm.ModDelete, Key: key(201)},
	}
	for _, mod := range deferred {
		applyLive(t, db, "sales", mod)
	}
	for i, mod := range deferred {
		if err := g.Ingest("sales", mod); err != nil {
			t.Fatal(err)
		}
		if mod.Kind == ivm.ModInsert && !mirrored(mod.Row[0].Int()).SameKey(mod.Row) {
			t.Fatalf("insert %d ingested after a later change mirrors %v, want %v", i, mirrored(mod.Row[0].Int()), mod.Row)
		}
	}
	shared("update ingested after its insert", 200)
	if err := h.ProcessBatch(h.Aliases()[0], 1); err != nil {
		t.Fatal(err)
	}
	var got storage.Row
	for _, r := range h.Result() {
		if r[0] == storage.I(200) {
			got = r
		}
	}
	if !got.SameKey(deferred[0].Row) {
		t.Fatalf("a drain covering only the insert shows sale 200 as %v, want %v", got, deferred[0].Row)
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
