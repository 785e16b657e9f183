package ivm

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"abivm/internal/sql"
	"abivm/internal/storage"
	"abivm/internal/testenv"
)

// liveDB builds the miniature TPC-R-shaped database used across the IVM
// tests: region(2) <- nation(4) <- supplier(6) <- partsupp(12).
func liveDB(t testing.TB) *storage.DB {
	t.Helper()
	db := storage.NewDB()
	mk := func(name string, cols []storage.Column, key string) *storage.Table {
		schema, err := storage.NewSchema(name, cols, key)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable(schema)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	region := mk("region", []storage.Column{
		{Name: "regionkey", Type: storage.TInt},
		{Name: "rname", Type: storage.TString},
	}, "regionkey")
	for i, n := range []string{"MIDDLE EAST", "EUROPE"} {
		if err := region.Insert(storage.Row{storage.I(int64(i)), storage.S(n)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := region.CreateIndex("region_pk", storage.HashIndex, "regionkey"); err != nil {
		t.Fatal(err)
	}

	nation := mk("nation", []storage.Column{
		{Name: "nationkey", Type: storage.TInt},
		{Name: "nname", Type: storage.TString},
		{Name: "regionkey", Type: storage.TInt},
	}, "nationkey")
	for i := 0; i < 4; i++ {
		if err := nation.Insert(storage.Row{storage.I(int64(i)), storage.S("N"), storage.I(int64(i % 2))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := nation.CreateIndex("nation_pk", storage.HashIndex, "nationkey"); err != nil {
		t.Fatal(err)
	}

	supplier := mk("supplier", []storage.Column{
		{Name: "suppkey", Type: storage.TInt},
		{Name: "sname", Type: storage.TString},
		{Name: "nationkey", Type: storage.TInt},
	}, "suppkey")
	for i := 0; i < 6; i++ {
		if err := supplier.Insert(storage.Row{storage.I(int64(i)), storage.S("S"), storage.I(int64(i % 4))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := supplier.CreateIndex("supplier_pk", storage.HashIndex, "suppkey"); err != nil {
		t.Fatal(err)
	}

	partsupp := mk("partsupp", []storage.Column{
		{Name: "partkey", Type: storage.TInt},
		{Name: "suppkey", Type: storage.TInt},
		{Name: "supplycost", Type: storage.TFloat},
	}, "partkey")
	for i := 0; i < 12; i++ {
		if err := partsupp.Insert(storage.Row{storage.I(int64(i)), storage.I(int64(i % 6)), storage.F(float64(100 + i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := partsupp.CreateIndex("ps_supp", storage.HashIndex, "suppkey"); err != nil {
		t.Fatal(err)
	}
	return db
}

const paperView = `
	SELECT MIN(PS.supplycost)
	FROM partsupp AS PS, supplier AS S, nation AS N, region AS R
	WHERE S.suppkey = PS.suppkey
	AND S.nationkey = N.nationkey
	AND N.regionkey = R.regionkey
	AND R.rname = 'MIDDLE EAST'`

// rowsKey canonicalizes a row multiset for comparison.
func rowsKey(rows []storage.Row) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = storage.EncodeKey(r...)
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// assertConsistent refreshes the maintainer and compares its view content
// with a fresh recompute over the live tables.
func assertConsistent(t *testing.T, m *Maintainer) {
	t.Helper()
	if err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	fresh, err := m.RecomputeFresh()
	if err != nil {
		t.Fatal(err)
	}
	got := m.Result()
	if rowsKey(got) != rowsKey(fresh) {
		t.Fatalf("view diverged:\nincremental: %v\nfresh:       %v", got, fresh)
	}
}

func TestInitialContentMatchesFreshRun(t *testing.T) {
	m, err := New(liveDB(t), paperView)
	if err != nil {
		t.Fatal(err)
	}
	assertConsistent(t, m)
	res := m.Result()
	if len(res) != 1 || res[0][0].Float() != 100 {
		t.Fatalf("initial MIN = %v, want 100", res)
	}
}

func TestAliasesOrder(t *testing.T) {
	m, err := New(liveDB(t), paperView)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"PS", "S", "N", "R"}
	got := m.Aliases()
	if len(got) != len(want) {
		t.Fatalf("aliases = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("aliases = %v, want %v", got, want)
		}
	}
}

func TestApplyUpdatesLiveImmediatelyButNotView(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the ME minimum (partkey 0, cost 100) to 50.
	err = m.Apply(Update("PS", []storage.Value{storage.I(0)}, storage.Row{storage.I(0), storage.I(0), storage.F(50)}))
	if err != nil {
		t.Fatal(err)
	}
	// Live table reflects the change.
	ps := db.MustTable("partsupp")
	row, _ := ps.Get(storage.I(0))
	if row[2].Float() != 50 {
		t.Fatalf("live row = %v", row)
	}
	// View not yet refreshed: still 100.
	if got := m.Result()[0][0].Float(); got != 100 {
		t.Fatalf("stale view = %g, want 100", got)
	}
	if p := m.Pending(); p[0] != 1 {
		t.Fatalf("pending = %v", p)
	}
	assertConsistent(t, m)
	if got := m.Result()[0][0].Float(); got != 50 {
		t.Fatalf("refreshed view = %g, want 50", got)
	}
}

func TestMinSurvivesDeletionOfMinimum(t *testing.T) {
	// The MIN-maintainability trap: delete the current minimum; the
	// multiset must recover the next-best value without recompute.
	m, err := New(liveDB(t), paperView)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(Delete("PS", storage.I(0))); err != nil { // cost 100, the minimum
		t.Fatal(err)
	}
	assertConsistent(t, m)
	// Remaining ME partsupp rows: keys 2,4,6,8,10 -> min cost 102.
	if got := m.Result()[0][0].Float(); got != 102 {
		t.Fatalf("MIN after deleting minimum = %g, want 102", got)
	}
}

func TestSupplierNationkeyUpdateMovesRegion(t *testing.T) {
	// The paper's second update type: change a supplier's nationkey so it
	// moves in/out of the MIDDLE EAST region.
	m, err := New(liveDB(t), paperView)
	if err != nil {
		t.Fatal(err)
	}
	// Supplier 1 (nation 1, EUROPE) moves to nation 0 (MIDDLE EAST):
	// partsupp rows with suppkey 1 (keys 1, 7 -> costs 101, 107) join in.
	err = m.Apply(Update("S", []storage.Value{storage.I(1)}, storage.Row{storage.I(1), storage.S("S"), storage.I(0)}))
	if err != nil {
		t.Fatal(err)
	}
	assertConsistent(t, m)
	if got := m.Result()[0][0].Float(); got != 100 {
		t.Fatalf("MIN = %g", got)
	}
	// And out again: all ME suppliers move to EUROPE; group drains.
	for _, sk := range []int64{0, 1, 2, 4} {
		err = m.Apply(Update("S", []storage.Value{storage.I(sk)}, storage.Row{storage.I(sk), storage.S("S"), storage.I(1)}))
		if err != nil {
			t.Fatal(err)
		}
	}
	assertConsistent(t, m)
}

func TestBatchProcessingOneTableAtATime(t *testing.T) {
	// Asymmetric processing: drain PS deltas while S deltas stay queued;
	// the view must reflect exactly the processed prefix.
	m, err := New(liveDB(t), paperView)
	if err != nil {
		t.Fatal(err)
	}
	mods := []Mod{
		Update("PS", []storage.Value{storage.I(0)}, storage.Row{storage.I(0), storage.I(0), storage.F(90)}),
		Update("S", []storage.Value{storage.I(1)}, storage.Row{storage.I(1), storage.S("S"), storage.I(0)}),
		Update("PS", []storage.Value{storage.I(2)}, storage.Row{storage.I(2), storage.I(2), storage.F(80)}),
	}
	if err := m.Apply(mods...); err != nil {
		t.Fatal(err)
	}
	if p := m.Pending(); p[0] != 2 || p[1] != 1 {
		t.Fatalf("pending = %v", p)
	}
	// Process only the first PS update.
	if err := m.ProcessBatch("PS", 1); err != nil {
		t.Fatal(err)
	}
	if got := m.Result()[0][0].Float(); got != 90 {
		t.Fatalf("after first batch MIN = %g, want 90", got)
	}
	if p := m.Pending(); p[0] != 1 || p[1] != 1 {
		t.Fatalf("pending after batch = %v", p)
	}
	// Remaining deltas via Refresh; compare against ground truth.
	assertConsistent(t, m)
	if got := m.Result()[0][0].Float(); got != 80 {
		t.Fatalf("final MIN = %g, want 80", got)
	}
}

func TestProcessBatchValidation(t *testing.T) {
	m, err := New(liveDB(t), paperView)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ProcessBatch("PS", 1); err == nil {
		t.Fatal("overdrain accepted")
	}
	if err := m.ProcessBatch("ZZ", 0); err == nil {
		t.Fatal("unknown alias accepted")
	}
	if err := m.ProcessBatch("PS", 0); err != nil {
		t.Fatalf("zero batch rejected: %v", err)
	}
}

func TestApplyValidation(t *testing.T) {
	m, err := New(liveDB(t), paperView)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(Insert("ZZ", storage.Row{})); err == nil {
		t.Fatal("unknown alias accepted")
	}
	// Key-changing update rejected.
	err = m.Apply(Update("PS", []storage.Value{storage.I(0)}, storage.Row{storage.I(99), storage.I(0), storage.F(1)}))
	if err == nil || !strings.Contains(err.Error(), "primary key") {
		t.Fatalf("key-changing update: %v", err)
	}
	// Duplicate insert propagates the storage error and is not enqueued.
	err = m.Apply(Insert("PS", storage.Row{storage.I(0), storage.I(0), storage.F(1)}))
	if err == nil {
		t.Fatal("duplicate insert accepted")
	}
	if p := m.Pending(); p[0] != 0 {
		t.Fatalf("failed mod was enqueued: %v", p)
	}
}

func TestSelfJoinRejected(t *testing.T) {
	_, err := New(liveDB(t), "SELECT a.nationkey FROM nation AS a, nation AS b WHERE a.nationkey = b.regionkey")
	if err == nil || !strings.Contains(err.Error(), "self-join") {
		t.Fatalf("err = %v", err)
	}
}

func TestInsertThenDeleteSameKeyInOneBatch(t *testing.T) {
	// Net delta collapses to nothing: the view must be unaffected and the
	// replica must stay consistent.
	m, err := New(liveDB(t), paperView)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(
		Insert("PS", storage.Row{storage.I(50), storage.I(0), storage.F(1)}),
		Delete("PS", storage.I(50)),
	); err != nil {
		t.Fatal(err)
	}
	if err := m.ProcessBatch("PS", 2); err != nil {
		t.Fatal(err)
	}
	if got := m.Result()[0][0].Float(); got != 100 {
		t.Fatalf("MIN = %g, want unchanged 100", got)
	}
	assertConsistent(t, m)
}

func TestDeleteThenReinsertSameRowInOneBatch(t *testing.T) {
	m, err := New(liveDB(t), paperView)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(
		Delete("PS", storage.I(0)),
		Insert("PS", storage.Row{storage.I(0), storage.I(0), storage.F(100)}),
	); err != nil {
		t.Fatal(err)
	}
	if err := m.ProcessBatch("PS", 2); err != nil {
		t.Fatal(err)
	}
	assertConsistent(t, m)
}

func TestApplyDeferred(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	// Apply the live change out-of-band, then observe it via deferral.
	ps := db.MustTable("partsupp")
	old, err := ps.Update([]storage.Value{storage.I(0)}, storage.Row{storage.I(0), storage.I(0), storage.F(60)})
	if err != nil {
		t.Fatal(err)
	}
	_ = old
	mod := Update("PS", []storage.Value{storage.I(0)}, storage.Row{storage.I(0), storage.I(0), storage.F(60)})
	if err := m.ApplyDeferred(mod); err != nil {
		t.Fatal(err)
	}
	if p := m.Pending(); p[0] != 1 {
		t.Fatalf("pending = %v", p)
	}
	assertConsistent(t, m)
	if got := m.Result()[0][0].Float(); got != 60 {
		t.Fatalf("MIN = %g, want 60", got)
	}
	if err := m.ApplyDeferred(Insert("ZZ", nil)); err == nil {
		t.Fatal("unknown alias accepted")
	}
}

func TestGroupByView(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, `SELECT n.regionkey, COUNT(*) AS cnt, SUM(ps.supplycost) AS total, MIN(ps.supplycost) AS mn
		FROM partsupp AS ps, supplier AS s, nation AS n
		WHERE s.suppkey = ps.suppkey AND s.nationkey = n.nationkey
		GROUP BY n.regionkey`)
	if err != nil {
		t.Fatal(err)
	}
	assertConsistent(t, m)
	if err := m.Apply(
		Update("ps", []storage.Value{storage.I(3)}, storage.Row{storage.I(3), storage.I(3), storage.F(5)}),
		Delete("ps", storage.I(7)),
		Insert("ps", storage.Row{storage.I(40), storage.I(5), storage.F(7)}),
	); err != nil {
		t.Fatal(err)
	}
	assertConsistent(t, m)
}

func TestSPJView(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, `SELECT s.suppkey, n.nname FROM supplier AS s, nation AS n
		WHERE s.nationkey = n.nationkey`)
	if err != nil {
		t.Fatal(err)
	}
	assertConsistent(t, m)
	if len(m.Result()) != 6 {
		t.Fatalf("initial SPJ rows = %d", len(m.Result()))
	}
	if err := m.Apply(
		Insert("s", storage.Row{storage.I(50), storage.S("X"), storage.I(0)}),
		Delete("s", storage.I(1)),
	); err != nil {
		t.Fatal(err)
	}
	assertConsistent(t, m)
	if len(m.Result()) != 6 {
		t.Fatalf("SPJ rows after mods = %d", len(m.Result()))
	}
}

func TestSPJViewWithDuplicates(t *testing.T) {
	// Projecting a non-key column produces duplicate view rows; the bag
	// multiplicities must track insertions and retractions exactly.
	db := liveDB(t)
	m, err := New(db, `SELECT n.regionkey FROM supplier AS s, nation AS n
		WHERE s.nationkey = n.nationkey`)
	if err != nil {
		t.Fatal(err)
	}
	assertConsistent(t, m)
	if got := len(m.Result()); got != 6 {
		t.Fatalf("initial rows = %d, want 6 (with duplicates)", got)
	}
	// Move suppliers around and delete one; multiplicities shift.
	if err := m.Apply(
		Update("s", []storage.Value{storage.I(0)}, storage.Row{storage.I(0), storage.S("S"), storage.I(3)}),
		Delete("s", storage.I(5)),
		Insert("s", storage.Row{storage.I(9), storage.S("S"), storage.I(0)}),
	); err != nil {
		t.Fatal(err)
	}
	assertConsistent(t, m)
	if got := len(m.Result()); got != 6 {
		t.Fatalf("rows after churn = %d, want 6", got)
	}
}

func TestMaintainerRejectsOrderByAndLimit(t *testing.T) {
	db := liveDB(t)
	for _, q := range []string{
		"SELECT suppkey FROM supplier ORDER BY suppkey",
		"SELECT suppkey FROM supplier LIMIT 5",
	} {
		_, err := New(db, q)
		var ue *sql.UnsupportedError
		if !errors.As(err, &ue) {
			t.Errorf("New(%q) err = %v, want *sql.UnsupportedError", q, err)
			continue
		}
		if ue.Pos <= 0 {
			t.Errorf("New(%q) diagnostic has no position: %v", q, err)
		}
	}
}

func TestCostAsymmetryIndexedVsUnindexed(t *testing.T) {
	// The engine-level root of the paper's Figure 1: a PS delta probes
	// supplier/nation/region through indexes (cheap, O(batch)); an S
	// delta's join against partsupp has no index on partsupp.suppkey, so
	// the hash join scans/builds over the whole table (expensive).
	db := liveDB(t)
	// Remove the ps_supp index effect by building a DB without it.
	db2 := storage.NewDB()
	for _, name := range db.TableNames() {
		src := db.MustTable(name)
		dst, err := db2.CreateTable(src.Schema())
		if err != nil {
			t.Fatal(err)
		}
		src.Scan(func(r storage.Row) bool {
			if err := dst.Insert(r); err != nil {
				t.Fatal(err)
			}
			return true
		})
		if name != "partsupp" { // keep partsupp unindexed
			for _, ix := range src.Indexes() {
				cols := make([]string, len(ix.Cols))
				for i, c := range ix.Cols {
					cols[i] = src.Schema().Columns[c].Name
				}
				if err := dst.CreateIndex(ix.Name, ix.Kind, cols...); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	m, err := New(db2, paperView)
	if err != nil {
		t.Fatal(err)
	}
	w := storage.DefaultWeights()

	cost := func(fn func()) float64 {
		before := *m.Stats()
		fn()
		return w.Cost(m.Stats().Sub(before))
	}
	psCost := cost(func() {
		if err := m.Apply(Update("PS", []storage.Value{storage.I(0)}, storage.Row{storage.I(0), storage.I(0), storage.F(90)})); err != nil {
			t.Fatal(err)
		}
		if err := m.ProcessBatch("PS", 1); err != nil {
			t.Fatal(err)
		}
	})
	sCost := cost(func() {
		if err := m.Apply(Update("S", []storage.Value{storage.I(0)}, storage.Row{storage.I(0), storage.S("S"), storage.I(1)})); err != nil {
			t.Fatal(err)
		}
		if err := m.ProcessBatch("S", 1); err != nil {
			t.Fatal(err)
		}
	})
	if sCost <= psCost {
		t.Fatalf("expected supplier deltas to cost more than partsupp deltas: S=%g PS=%g", sCost, psCost)
	}
	assertConsistent(t, m)
}

// TestDeltaPlanPreparedOncePerAlias: an alias's delta query is compiled
// on its first drain and the same operators run every later batch; a
// plan binds the replica's tables, so replacing the replica drops it,
// and between drains it holds no batch.
func TestDeltaPlanPreparedOncePerAlias(t *testing.T) {
	m, err := New(liveDB(t), paperView)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.prepared) != 0 {
		t.Fatalf("%d plans prepared before any drain", len(m.prepared))
	}
	drain := func(cost float64) {
		t.Helper()
		if err := m.Apply(Update("PS", []storage.Value{storage.I(0)}, storage.Row{storage.I(0), storage.I(0), storage.F(cost)})); err != nil {
			t.Fatal(err)
		}
		if err := m.ProcessBatch("PS", 1); err != nil {
			t.Fatal(err)
		}
		assertConsistent(t, m)
	}
	drain(90)
	first := m.prepared["PS"]
	if first == nil || len(m.prepared) != 1 {
		t.Fatalf("after a PS drain: prepared = %v, want PS only", m.prepared)
	}
	drain(70)
	if m.prepared["PS"] != first {
		t.Error("second PS drain compiled a new plan")
	}
	if n, _ := first.src.RowBound(); n != 0 {
		t.Errorf("prepared plan still holds a %d-row batch between drains", n)
	}
	m.setReplica(m.replica)
	if len(m.prepared) != 0 {
		t.Error("replacing the replica kept the prepared plans")
	}
	drain(50)
}

func TestRandomizedMaintenanceAgainstRecompute(t *testing.T) {
	// Long randomized soak: interleave inserts, deletes and updates on
	// two tables with partial batch processing, comparing against a fresh
	// recompute at every checkpoint.
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	nextPS := int64(100)
	livePS := map[int64]bool{}
	for i := 0; i < 12; i++ {
		livePS[int64(i)] = true
	}
	psKeys := func() []int64 {
		out := make([]int64, 0, len(livePS))
		for k := range livePS {
			out = append(out, k)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for step := 0; step < 300; step++ {
		switch rng.Intn(4) {
		case 0: // insert PS row
			k := nextPS
			nextPS++
			mod := Insert("PS", storage.Row{storage.I(k), storage.I(int64(rng.Intn(6))), storage.F(float64(rng.Intn(500)))})
			if err := m.Apply(mod); err != nil {
				t.Fatal(err)
			}
			livePS[k] = true
		case 1: // delete PS row
			keys := psKeys()
			if len(keys) == 0 {
				continue
			}
			k := keys[rng.Intn(len(keys))]
			if err := m.Apply(Delete("PS", storage.I(k))); err != nil {
				t.Fatal(err)
			}
			delete(livePS, k)
		case 2: // update PS cost
			keys := psKeys()
			if len(keys) == 0 {
				continue
			}
			k := keys[rng.Intn(len(keys))]
			row, _ := db.MustTable("partsupp").Get(storage.I(k))
			newRow := storage.Row{row[0], row[1], storage.F(float64(rng.Intn(500)))}
			if err := m.Apply(Update("PS", []storage.Value{storage.I(k)}, newRow)); err != nil {
				t.Fatal(err)
			}
		case 3: // update supplier nationkey
			sk := int64(rng.Intn(6))
			row, _ := db.MustTable("supplier").Get(storage.I(sk))
			newRow := storage.Row{row[0], row[1], storage.I(int64(rng.Intn(4)))}
			if err := m.Apply(Update("S", []storage.Value{storage.I(sk)}, newRow)); err != nil {
				t.Fatal(err)
			}
		}
		// Occasionally drain a random prefix of a random queue.
		if rng.Intn(5) == 0 {
			alias := m.Aliases()[rng.Intn(4)]
			pending := m.Pending()
			for i, a := range m.Aliases() {
				if a == alias && pending[i] > 0 {
					if err := m.ProcessBatch(alias, 1+rng.Intn(pending[i])); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if step%50 == 49 {
			assertConsistent(t, m)
		}
	}
	assertConsistent(t, m)
}

// TestMarkDirtyAllocs: marking a key that is already dirty looks it up
// as bytes and allocates nothing; only a key new to the set costs its
// string and its key values.
func TestMarkDirtyAllocs(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	m, err := New(liveDB(t), paperView)
	if err != nil {
		t.Fatal(err)
	}
	repl := m.replica.MustTable("partsupp")
	rows := []storage.Row{
		{storage.I(3), storage.I(3), storage.F(1)},
		{storage.I(4), storage.I(4), storage.F(2)},
		{storage.I(3), storage.I(3), storage.F(3)},
	}
	m.markDirty("partsupp", repl, rows)
	if n := testing.AllocsPerRun(100, func() { m.markDirty("partsupp", repl, rows) }); n != 0 {
		t.Errorf("re-marking dirty keys allocated %v times, want 0", n)
	}
	ks := m.dirty["partsupp"]
	if len(ks) != 2 || !storage.Row(ks[storage.EncodeKey(storage.I(3))]).SameKey(storage.Row{storage.I(3)}) {
		t.Errorf("dirty set %v, want keys 3 and 4 with their values", ks)
	}
}
