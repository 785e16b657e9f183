package pubsub

import (
	"strings"
	"testing"

	"abivm/internal/dataflow"
	"abivm/internal/durable"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// engineUnderTest is one viewEngine over its own copy of the demo
// database, plus the feeding half the broker does around Arrive: the
// live-table change and, for the shared engine, the graph ingest.
type engineUnderTest struct {
	viewEngine
	feed  func(t *testing.T, table string, mod ivm.Mod)
	store *durable.Store // the disk tier's, which the broker would sync; nil in memory
}

// sync is the broker's durability barrier for this engine alone.
func (e engineUnderTest) sync(t *testing.T) {
	t.Helper()
	if e.store == nil {
		return
	}
	if err := e.store.Sync(); err != nil {
		t.Fatal(err)
	}
}

// engineImpls builds each implementation of the contract over a fresh
// database: the classic engine on both durability tiers, and the shared
// engine. redoLog says whether the engine keeps a redo log of its own:
// the classic engine logs every accepted arrival and every drain, which a
// recovery replays; the shared engine logs nothing — the graph's ingest
// log has every arrival and outlives the engine's crash, and the sink's
// cursors record its drains.
var engineImpls = []struct {
	name    string
	redoLog bool
	build   func(t *testing.T) engineUnderTest
}{
	{"classic", true, func(t *testing.T) engineUnderTest { return buildClassic(t, nil) }},
	{"classic-disk", true, func(t *testing.T) engineUnderTest { return buildClassic(t, durable.MemOpener()) }},
	{"shared", false, func(t *testing.T) engineUnderTest {
		db := salesDB(t)
		p, err := ivm.PlanView(eastQuery)
		if err != nil {
			t.Fatal(err)
		}
		g := dataflow.NewGraph(db)
		e, err := newSharedEngine(g, p)
		if err != nil {
			t.Fatal(err)
		}
		return engineUnderTest{viewEngine: e, feed: func(t *testing.T, table string, mod ivm.Mod) {
			t.Helper()
			if err := ivm.ApplyLive(db, table, mod, true); err != nil {
				t.Fatal(err)
			}
			if err := g.Ingest(table, mod); err != nil {
				t.Fatal(err)
			}
		}}
	}},
}

func buildClassic(t *testing.T, open durable.Opener) engineUnderTest {
	db := salesDB(t)
	var store *durable.Store
	if open != nil {
		var err error
		if store, err = open("east"); err != nil {
			t.Fatal(err)
		}
	}
	e, err := newClassicEngine(db, eastQuery, "east", store)
	if err != nil {
		t.Fatal(err)
	}
	return engineUnderTest{viewEngine: e, store: store, feed: func(t *testing.T, table string, mod ivm.Mod) {
		t.Helper()
		if err := ivm.ApplyLive(db, table, mod, true); err != nil {
			t.Fatal(err)
		}
		arrive(t, e, table, mod)
	}}
}

// arrive hands mod to the engine under the alias eastQuery reads table
// through.
func arrive(t *testing.T, e *classicEngine, table string, mod ivm.Mod) {
	t.Helper()
	mod.Alias = map[string]string{"sales": "s", "stations": "st"}[table]
	if err := e.Arrive(mod); err != nil {
		t.Fatal(err)
	}
}

// engineScript is a short stream touching both tables: sales inserts at
// EAST and WEST stations, a delete, and a region flip.
func engineScript() []chaosEvent {
	var evs []chaosEvent
	for k := int64(100); k < 106; k++ {
		evs = append(evs, chaosEvent{"sales", ivm.Insert("", storage.Row{storage.I(k), storage.I(k % 8), storage.F(float64(k))})})
	}
	evs = append(evs,
		chaosEvent{"sales", ivm.Delete("", storage.I(3))},
		chaosEvent{"stations", ivm.Update("", []storage.Value{storage.I(1)}, storage.Row{storage.I(1), storage.S("EAST")})},
	)
	return evs
}

func pendingOf(e viewEngine) []int { return e.PendingInto(nil) }

// drainAll refreshes the view: every alias's whole queue.
func drainAll(t *testing.T, e viewEngine) {
	t.Helper()
	for i, k := range pendingOf(e) {
		if err := e.ProcessBatch(e.Aliases()[i], k); err != nil {
			t.Fatal(err)
		}
	}
}

// TestViewEngineContract runs one body over every implementation of the
// broker's per-subscription contract: what the broker relies on must
// hold whichever engine and tier is behind the interface.
func TestViewEngineContract(t *testing.T) {
	for _, impl := range engineImpls {
		t.Run(impl.name, func(t *testing.T) {
			e := impl.build(t)
			if got := strings.Join(e.Aliases(), ","); got != "s,st" {
				t.Fatalf("Aliases = %s, want s,st", got)
			}
			initial := rowsText(e.Result())
			// WALLen is what a recovery would replay since the last
			// checkpoint: every arrival and drain, if the engine keeps a
			// redo log.
			checkWAL := func(ctx string, arrivals, drains int) {
				t.Helper()
				want := 0
				if impl.redoLog {
					want = arrivals + drains
				}
				if e.WALLen() != want {
					t.Fatalf("WALLen = %d after %s, want %d", e.WALLen(), ctx, want)
				}
			}

			// Arrivals show up in the state vector, under the right alias;
			// the content stays stale.
			script := engineScript()
			for _, ev := range script {
				e.feed(t, ev.table, ev.mod)
			}
			if p := pendingOf(e); p[0] != 7 || p[1] != 1 {
				t.Fatalf("pending after 7 sales + 1 station arrivals = %v", p)
			}
			checkWAL("8 arrivals", len(script), 0)
			if rowsText(e.Result()) != initial {
				t.Fatal("arrivals changed the content before any drain")
			}

			// Out-of-range batches are refused and change nothing.
			for _, bad := range []struct {
				alias string
				k     int
			}{{"s", 8}, {"s", -1}, {"st", 2}, {"nope", 1}} {
				if err := e.ProcessBatch(bad.alias, bad.k); err == nil {
					t.Errorf("ProcessBatch(%q, %d) accepted", bad.alias, bad.k)
				}
			}
			if p := pendingOf(e); p[0] != 7 || p[1] != 1 {
				t.Fatalf("refused batches moved the state vector: %v", p)
			}

			// A drain takes exactly k from one queue and logs the commit.
			if err := e.ProcessBatch("s", 3); err != nil {
				t.Fatal(err)
			}
			if p := pendingOf(e); p[0] != 4 || p[1] != 1 {
				t.Fatalf("pending after draining 3 sales = %v", p)
			}
			checkWAL("8 arrivals and a drain", len(script), 1)
			partial := rowsText(e.Result())
			if partial == initial {
				t.Fatal("draining three EAST/WEST inserts left the content unchanged")
			}

			// A refused WAL commit leaves the fold undone: same content, same
			// queues, and the retry succeeds from the pre-action state.
			e.SetInjector(fault.AlwaysAt(fault.SiteWALCommit))
			if err := e.ProcessBatch("s", 4); err == nil || !fault.Transient(err) {
				t.Fatalf("drain under a stuck wal-commit site: %v", err)
			}
			if p := pendingOf(e); p[0] != 4 || p[1] != 1 || rowsText(e.Result()) != partial {
				t.Fatalf("failed commit left pending=%v content=%s, want [4 1] %s", p, rowsText(e.Result()), partial)
			}
			checkWAL("a refused commit", len(script), 1)
			e.SetInjector(nil)

			// A checkpoint truncates the WAL prefix it covers, and the
			// barrier has nothing left to refuse.
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if e.WALLen() != 0 {
				t.Fatalf("WALLen = %d after a checkpoint", e.WALLen())
			}
			e.sync(t)

			// Crash with a checkpoint behind and a WAL suffix ahead (one
			// drain, one arrival): the recovered engine equals a twin that
			// ran the same stream and never crashed.
			twin := impl.build(t)
			for _, ev := range script {
				twin.feed(t, ev.table, ev.mod)
			}
			if err := twin.ProcessBatch("s", 3); err != nil {
				t.Fatal(err)
			}
			late := chaosEvent{"sales", ivm.Insert("", storage.Row{storage.I(200), storage.I(0), storage.F(5)})}
			for _, x := range []engineUnderTest{e, twin} {
				if err := x.ProcessBatch("st", 1); err != nil {
					t.Fatal(err)
				}
				x.feed(t, late.table, late.mod)
			}
			e.sync(t)
			checkWAL("a checkpoint, a drain and an arrival", 1, 1)
			fallback, err := e.Recover()
			if err != nil || fallback {
				t.Fatalf("Recover over intact artifacts: fallback=%v err=%v", fallback, err)
			}
			if got, want := pendingOf(e), pendingOf(twin); got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("recovered pending %v, twin %v", got, want)
			}
			if rowsText(e.Result()) != rowsText(twin.Result()) {
				t.Fatalf("recovered content %s, twin %s", rowsText(e.Result()), rowsText(twin.Result()))
			}
			drainAll(t, e)
			drainAll(t, twin)
			if rowsText(e.Result()) != rowsText(twin.Result()) {
				t.Fatalf("refreshed content after recovery %s, twin %s", rowsText(e.Result()), rowsText(twin.Result()))
			}
		})
	}
}

// TestViewEngineContractDiskFallback is the disk-backed classic engine's
// last recovery rung at the engine level: with the base segment damaged
// the store cannot replay, so Recover reports a fallback and the engine
// rebuilds itself over the live tables — the constructor Subscribe uses —
// re-seeding the store, from which the next crash recovers exactly.
func TestViewEngineContractDiskFallback(t *testing.T) {
	fsys := durable.NewMemFS()
	e := buildClassic(t, func(ns string) (*durable.Store, error) { return durable.NewStore(fsys, ns) })
	script := engineScript()
	for _, ev := range script {
		e.feed(t, ev.table, ev.mod)
	}
	if err := e.ProcessBatch("s", 3); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	e.sync(t)
	names, err := fsys.List()
	if err != nil {
		t.Fatal(err)
	}
	damaged := 0
	for _, name := range names {
		if !strings.HasSuffix(name, "-base.seg") {
			continue
		}
		data, err := fsys.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := fsys.WriteFile(name, data); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged == 0 {
		t.Fatalf("no base segment among %v", names)
	}

	fallback, err := e.Recover()
	if err != nil || !fallback {
		t.Fatalf("Recover over a damaged base: fallback=%v err=%v", fallback, err)
	}
	live := e.viewEngine.(*classicEngine).db
	fresh, err := ivm.New(live, eastQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rowsText(e.Result()), rowsText(fresh.Result()); got != want {
		t.Fatalf("fallback content %s, fresh maintainer over the live tables %s", got, want)
	}
	if p := pendingOf(e); p[0] != 0 || p[1] != 0 {
		t.Fatalf("pending after a fallback = %v, want the backlog gone", p)
	}

	// The rebuild re-seeded the store: more arrivals, a drain and a sync
	// later, a second crash is exact.
	for _, ev := range script[:4] {
		ev.mod.Row = storage.Row{storage.I(ev.mod.Row[0].Int() + 100), ev.mod.Row[1], ev.mod.Row[2]}
		e.feed(t, ev.table, ev.mod)
	}
	if err := e.ProcessBatch("s", 2); err != nil {
		t.Fatal(err)
	}
	e.sync(t)
	wantPending, wantRows := pendingOf(e), rowsText(e.Result())
	if fallback, err := e.Recover(); err != nil || fallback {
		t.Fatalf("second Recover: fallback=%v err=%v", fallback, err)
	}
	if got := pendingOf(e); got[0] != wantPending[0] || got[1] != wantPending[1] {
		t.Fatalf("recovered pending %v, want %v", got, wantPending)
	}
	if got := rowsText(e.Result()); got != wantRows {
		t.Fatalf("recovered content %s, want %s", got, wantRows)
	}
}
