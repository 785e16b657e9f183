package storage

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func suppSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("supplier", []Column{
		{Name: "suppkey", Type: TInt},
		{Name: "name", Type: TString},
		{Name: "nationkey", Type: TInt},
	}, "suppkey")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaValidation(t *testing.T) {
	cols := []Column{{Name: "a", Type: TInt}}
	if _, err := NewSchema("", cols, "a"); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSchema("t", nil, "a"); err == nil {
		t.Error("no columns accepted")
	}
	if _, err := NewSchema("t", []Column{{Name: "a", Type: TInt}, {Name: "a", Type: TInt}}, "a"); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema("t", cols); err == nil {
		t.Error("missing key accepted")
	}
	if _, err := NewSchema("t", cols, "zzz"); err == nil {
		t.Error("unknown key column accepted")
	}
}

func TestSchemaColIndexAndCheckRow(t *testing.T) {
	s := suppSchema(t)
	if s.ColIndex("nationkey") != 2 {
		t.Error("ColIndex wrong")
	}
	if s.ColIndex("missing") != -1 {
		t.Error("missing column index")
	}
	if err := s.CheckRow(Row{I(1), S("a"), I(2)}); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if err := s.CheckRow(Row{I(1), S("a")}); err == nil {
		t.Error("short row accepted")
	}
	if err := s.CheckRow(Row{S("x"), S("a"), I(2)}); err == nil {
		t.Error("wrong type accepted")
	}
}

func TestSchemaAcceptsIntForFloatColumn(t *testing.T) {
	s, err := NewSchema("ps", []Column{
		{Name: "k", Type: TInt},
		{Name: "cost", Type: TFloat},
	}, "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckRow(Row{I(1), I(100)}); err != nil {
		t.Errorf("int for float rejected: %v", err)
	}
}

func TestTableInsertGetDelete(t *testing.T) {
	tbl := NewTable(suppSchema(t), nil)
	if err := tbl.Insert(Row{I(1), S("acme"), I(10)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{I(1), S("dup"), I(11)}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate key: err = %v", err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	r, ok := tbl.Get(I(1))
	if !ok || r[1].Str() != "acme" {
		t.Fatalf("Get = (%v, %t)", r, ok)
	}
	if _, ok := tbl.Get(I(2)); ok {
		t.Fatal("phantom row")
	}
	old, err := tbl.Delete(I(1))
	if err != nil || old[1].Str() != "acme" {
		t.Fatalf("Delete = (%v, %v)", old, err)
	}
	if _, err := tbl.Delete(I(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: err = %v", err)
	}
	if tbl.Len() != 0 {
		t.Fatalf("Len after delete = %d", tbl.Len())
	}
}

func TestTableInsertCopiesRow(t *testing.T) {
	tbl := NewTable(suppSchema(t), nil)
	r := Row{I(1), S("acme"), I(10)}
	if err := tbl.Insert(r); err != nil {
		t.Fatal(err)
	}
	r[1] = S("mutated")
	got, _ := tbl.Get(I(1))
	if got[1].Str() != "acme" {
		t.Fatal("Insert aliases caller row")
	}
}

func TestTableSlotReuse(t *testing.T) {
	tbl := NewTable(suppSchema(t), nil)
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(Row{I(int64(i)), S("s"), I(0)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := tbl.Delete(I(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 10; i < 15; i++ {
		if err := tbl.Insert(Row{I(int64(i)), S("s"), I(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(tbl.rows); got != 10 {
		t.Fatalf("slots grew to %d despite free list", got)
	}
	count := 0
	tbl.Scan(func(Row) bool { count++; return true })
	if count != 10 {
		t.Fatalf("Scan visited %d rows", count)
	}
}

func TestTableUpdate(t *testing.T) {
	tbl := NewTable(suppSchema(t), nil)
	if err := tbl.CreateIndex("by_nation", HashIndex, "nationkey"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{I(1), S("acme"), I(10)}); err != nil {
		t.Fatal(err)
	}
	// Non-key update.
	old, err := tbl.Update([]Value{I(1)}, Row{I(1), S("acme"), I(20)})
	if err != nil || old[2].Int() != 10 {
		t.Fatalf("Update = (%v, %v)", old, err)
	}
	rows, err := tbl.LookupIndex("by_nation", I(20))
	if err != nil || len(rows) != 1 {
		t.Fatalf("index not maintained: %v %v", rows, err)
	}
	if rows, _ := tbl.LookupIndex("by_nation", I(10)); len(rows) != 0 {
		t.Fatal("stale index entry for old value")
	}
	// Key-changing update.
	if _, err := tbl.Update([]Value{I(1)}, Row{I(2), S("acme"), I(20)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Get(I(1)); ok {
		t.Fatal("old key still resolves")
	}
	if _, ok := tbl.Get(I(2)); !ok {
		t.Fatal("new key missing")
	}
	// Update to an existing key fails.
	if err := tbl.Insert(Row{I(3), S("b"), I(30)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Update([]Value{I(3)}, Row{I(2), S("b"), I(30)}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("key collision on update: err = %v", err)
	}
	// Update of a missing row fails.
	if _, err := tbl.Update([]Value{I(99)}, Row{I(99), S("x"), I(0)}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing update: err = %v", err)
	}
}

func TestHashIndexLookup(t *testing.T) {
	tbl := NewTable(suppSchema(t), nil)
	if err := tbl.CreateIndex("by_nation", HashIndex, "nationkey"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := tbl.Insert(Row{I(int64(i)), S("s"), I(int64(i % 3))}); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := tbl.LookupIndex("by_nation", I(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("lookup returned %d rows, want 10", len(rows))
	}
	for _, r := range rows {
		if r[2].Int() != 1 {
			t.Fatalf("wrong row %v", r)
		}
	}
	if _, err := tbl.LookupIndex("nope", I(1)); err == nil {
		t.Fatal("unknown index accepted")
	}
}

func TestIndexBackfillOnCreate(t *testing.T) {
	tbl := NewTable(suppSchema(t), nil)
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(Row{I(int64(i)), S("s"), I(7)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex("late", HashIndex, "nationkey"); err != nil {
		t.Fatal(err)
	}
	rows, _ := tbl.LookupIndex("late", I(7))
	if len(rows) != 10 {
		t.Fatalf("backfill found %d rows", len(rows))
	}
	if err := tbl.CreateIndex("late", HashIndex, "nationkey"); err == nil {
		t.Fatal("duplicate index name accepted")
	}
	if err := tbl.CreateIndex("bad", HashIndex, "missing"); err == nil {
		t.Fatal("index on missing column accepted")
	}
	if err := tbl.CreateIndex("bad", HashIndex+1, "nationkey"); err == nil {
		t.Fatal("index of an unknown kind accepted")
	}
}

func TestIndexOn(t *testing.T) {
	tbl := NewTable(suppSchema(t), nil)
	if err := tbl.CreateIndex("by_nation", HashIndex, "nationkey"); err != nil {
		t.Fatal(err)
	}
	if ix := tbl.IndexOn("nationkey"); ix == nil || ix.Name != "by_nation" {
		t.Fatal("IndexOn missed the index")
	}
	if ix := tbl.IndexOn("name"); ix != nil {
		t.Fatal("IndexOn invented an index")
	}
	if ix := tbl.IndexOn("missing"); ix != nil {
		t.Fatal("IndexOn matched a missing column")
	}
}

func TestScanEarlyStop(t *testing.T) {
	tbl := NewTable(suppSchema(t), nil)
	for i := 0; i < 10; i++ {
		_ = tbl.Insert(Row{I(int64(i)), S("s"), I(0)})
	}
	count := 0
	tbl.Scan(func(Row) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("visited %d, want 3", count)
	}
}

func TestStatsAccounting(t *testing.T) {
	tbl := NewTable(suppSchema(t), nil)
	st := tbl.Stats()
	_ = tbl.Insert(Row{I(1), S("a"), I(10)})
	if st.RowsInserted != 1 {
		t.Fatalf("RowsInserted = %d", st.RowsInserted)
	}
	tbl.Scan(func(Row) bool { return true })
	if st.RowsScanned != 1 {
		t.Fatalf("RowsScanned = %d", st.RowsScanned)
	}
	tbl.Get(I(1))
	if st.IndexProbes == 0 {
		t.Fatal("Get did not count a probe")
	}
}

func TestStatsAddSubCost(t *testing.T) {
	a := Stats{RowsScanned: 10, IndexProbes: 4, BatchSetups: 1}
	b := Stats{RowsScanned: 3, IndexProbes: 1}
	d := a.Sub(b)
	if d.RowsScanned != 7 || d.IndexProbes != 3 || d.BatchSetups != 1 {
		t.Fatalf("Sub = %+v", d)
	}
	var acc Stats
	acc.Add(a)
	acc.Add(b)
	if acc.RowsScanned != 13 {
		t.Fatalf("Add = %+v", acc)
	}
	w := DefaultWeights()
	if w.Cost(Stats{}) != 0 {
		t.Fatal("zero stats should cost 0")
	}
	if w.Cost(a) <= 0 {
		t.Fatal("non-zero stats should cost > 0")
	}
}

func TestDBCatalog(t *testing.T) {
	db := NewDB()
	s := suppSchema(t)
	tbl, err := db.CreateTable(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(s); err == nil {
		t.Fatal("duplicate table accepted")
	}
	got, err := db.Table("supplier")
	if err != nil || got != tbl {
		t.Fatalf("Table = (%v, %v)", got, err)
	}
	if _, err := db.Table("nope"); err == nil {
		t.Fatal("missing table resolved")
	}
	if names := db.TableNames(); len(names) != 1 || names[0] != "supplier" {
		t.Fatalf("TableNames = %v", names)
	}
	// Tables share the DB's stats.
	_ = tbl.Insert(Row{I(1), S("a"), I(1)})
	if db.Stats().RowsInserted != 1 {
		t.Fatal("table does not share DB stats")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustTable on missing table did not panic")
		}
	}()
	db.MustTable("missing")
}

func TestTableRandomOpsConsistency(t *testing.T) {
	// Property: after a random op sequence, the PK map, the scan view and
	// the secondary index agree.
	rng := rand.New(rand.NewSource(55))
	tbl := NewTable(suppSchema(t), nil)
	if err := tbl.CreateIndex("by_nation", HashIndex, "nationkey"); err != nil {
		t.Fatal(err)
	}
	ref := map[int64]int64{} // suppkey -> nationkey
	for op := 0; op < 5000; op++ {
		k := int64(rng.Intn(300))
		switch rng.Intn(3) {
		case 0:
			nk := int64(rng.Intn(5))
			err := tbl.Insert(Row{I(k), S("s"), I(nk)})
			if _, exists := ref[k]; exists {
				if !errors.Is(err, ErrDuplicateKey) {
					t.Fatalf("op %d: expected duplicate error, got %v", op, err)
				}
			} else if err != nil {
				t.Fatalf("op %d: %v", op, err)
			} else {
				ref[k] = nk
			}
		case 1:
			_, err := tbl.Delete(I(k))
			if _, exists := ref[k]; exists {
				if err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				delete(ref, k)
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d: expected not-found, got %v", op, err)
			}
		case 2:
			nk := int64(rng.Intn(5))
			_, err := tbl.Update([]Value{I(k)}, Row{I(k), S("s"), I(nk)})
			if _, exists := ref[k]; exists {
				if err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				ref[k] = nk
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d: expected not-found, got %v", op, err)
			}
		}
	}
	if tbl.Len() != len(ref) {
		t.Fatalf("Len %d != ref %d", tbl.Len(), len(ref))
	}
	seen := 0
	tbl.Scan(func(r Row) bool {
		seen++
		nk, ok := ref[r[0].Int()]
		if !ok || nk != r[2].Int() {
			t.Fatalf("scan row %v disagrees with ref", r)
		}
		return true
	})
	if seen != len(ref) {
		t.Fatalf("scan saw %d rows, ref has %d", seen, len(ref))
	}
	// Index agrees per nation key.
	counts := map[int64]int{}
	for _, nk := range ref {
		counts[nk]++
	}
	for nk, want := range counts {
		rows, err := tbl.LookupIndex("by_nation", I(nk))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != want {
			t.Fatalf("index count for nation %d: %d, want %d", nk, len(rows), want)
		}
	}
}

// TestUpdateKeepsIndexBucketOrder: an update that leaves the indexed
// column alone still moves the row to the end of its bucket (the order
// remove-then-insert always produced, which join output order rests
// on).
func TestUpdateKeepsIndexBucketOrder(t *testing.T) {
	tbl := NewTable(suppSchema(t), nil)
	if err := tbl.CreateIndex("by_nation", HashIndex, "nationkey"); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 4; i++ {
		if err := tbl.Insert(Row{I(i), S("s"), I(7)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int64{1, 2} {
		if _, err := tbl.Update([]Value{I(k)}, Row{I(k), S("renamed"), I(7)}); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := tbl.LookupIndex("by_nation", I(7))
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, r := range rows {
		if renamed := r[1].Str() == "renamed"; renamed != (r[0].Int() <= 2) {
			t.Errorf("stale row %v", r)
		}
		got = append(got, r[0].Int())
	}
	if want := []int64{4, 1, 3, 2}; !slices.Equal(got, want) {
		t.Errorf("keys in lookup order %v, want %v", got, want)
	}
}

// TestTableDisplaced: Displaced returns the row the last Delete or Update
// removed, under that row's key and no other. An Insert leaves it as it
// is, and so does a Delete or an Update that fails; neither a clone nor a
// snapshot round trip carries it.
func TestTableDisplaced(t *testing.T) {
	db := NewDB()
	tbl, err := db.CreateTable(suppSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 3; k++ {
		if err := tbl.Insert(Row{I(k), S("s"), I(k)}); err != nil {
			t.Fatal(err)
		}
	}
	key := func(k int64) Value { return I(k) }
	displaced := func(ctx string, tbl *Table, want Row, at int64) {
		t.Helper()
		for k := int64(1); k <= 5; k++ {
			got := tbl.Displaced(key(k))
			if k != at && got != nil {
				t.Fatalf("%s: key %d displaced %v, want nil", ctx, k, got)
			}
			if k == at && (got == nil || &got[0] != &want[0]) {
				t.Fatalf("%s: key %d displaced %v, want the removed row %v", ctx, k, got, want)
			}
		}
	}
	displaced("fresh table", tbl, nil, 0)
	old, err := tbl.Delete(I(1))
	if err != nil {
		t.Fatal(err)
	}
	displaced("after Delete", tbl, old, 1)
	if err := tbl.Insert(Row{I(1), S("again"), I(1)}); err != nil {
		t.Fatal(err)
	}
	displaced("after Insert", tbl, old, 1)
	if _, err := tbl.Delete(I(9)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete of a missing key: %v", err)
	}
	displaced("after a failed Delete", tbl, old, 1)
	if old, err = tbl.Update([]Value{I(2)}, Row{I(2), S("t"), I(7)}); err != nil {
		t.Fatal(err)
	}
	displaced("after Update", tbl, old, 2)
	if _, err := tbl.Update([]Value{I(9)}, Row{I(9), S("t"), I(7)}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Update of a missing key: %v", err)
	}
	if _, err := tbl.Update([]Value{I(2)}, Row{I(3), S("t"), I(7)}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("Update onto an existing key: %v", err)
	}
	displaced("after failed Updates", tbl, old, 2)

	clone, err := CloneTable(NewDB(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	displaced("clone", clone, nil, 0)
	back, err := ReadSnapshot(db.AppendSnapshot(nil))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := back.Table("supplier")
	if err != nil {
		t.Fatal(err)
	}
	displaced("snapshot round trip", restored, nil, 0)
}
