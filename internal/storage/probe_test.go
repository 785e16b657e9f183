package storage

import (
	"testing"

	"abivm/internal/testenv"
)

// probeTable is the fixture of the allocation pins: suppliers 0..n-1
// under a hash index on nationkey, n/4 rows a bucket.
func probeTable(t *testing.T, n int) *Table {
	t.Helper()
	tbl := NewTable(suppSchema(t), nil)
	if err := tbl.CreateIndex("by_nation", HashIndex, "nationkey"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tbl.Insert(suppRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func suppRow(i int) Row {
	return Row{I(int64(i)), S("supplier-" + string(rune('a'+i%26)) + string(rune('a'+i/26%26))), I(int64(i % 4))}
}

// TestKeyedProbeAllocs pins the key path — a key is hashed, never
// encoded: looking up, deleting or updating under a key the table
// already holds allocates nothing beyond the new row's clone, and
// neither does an insert or an update that moves a row to a new key,
// nor an insert into a reused slot or an update of a table that keeps
// a hash column.
func TestKeyedProbeAllocs(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	const runs = 100
	tbl := probeTable(t, runs+8)
	key := []Value{I(7)}
	if n := testing.AllocsPerRun(runs, func() {
		if _, ok := tbl.Get(key...); !ok {
			t.Fatal("row 7 missing")
		}
	}); n != 0 {
		t.Errorf("Get allocated %v times, want 0", n)
	}

	// Update under an unchanged key: the new row's clone and nothing
	// else, although by_name holds each row alone in its bucket, which
	// a remove followed by an insert would drop and make again.
	named := probeTable(t, 8)
	if err := named.CreateIndex("by_name", HashIndex, "name"); err != nil {
		t.Fatal(err)
	}
	upd := suppRow(7)
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := named.Update(key, upd); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Update with an unchanged key allocated %v times, want at most 1", n)
	}

	// One delete a run, of rows whose index buckets outlive them.
	next := 0
	del := make([]Value, 1)
	if n := testing.AllocsPerRun(runs, func() {
		del[0] = I(int64(next))
		next++
		if _, err := tbl.Delete(del...); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Delete allocated %v times, want 0", n)
	}

	// One insert a run into the slots and buckets the deletes freed:
	// the row's clone and nothing else.
	next = 0
	ins := suppRow(0)
	if n := testing.AllocsPerRun(runs, func() {
		ins[0] = I(int64(next))
		next++
		if err := tbl.Insert(ins); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Insert into existing index buckets allocated %v times, want 1", n)
	}

	// One update a run that moves row 7 to a new primary key, its indexed
	// columns as they were: the new row's clone and nothing else.
	moving := probeTable(t, 8)
	from, to := make([]Value, 1), suppRow(7)
	if n := testing.AllocsPerRun(runs, func() {
		from[0] = to[0]
		to[0] = I(to[0].Int() + 1000)
		if _, err := moving.Update(from, to); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Update that changes the primary key allocated %v times, want 1", n)
	}

	// A table that keeps the key hashes of its name column: an insert into
	// a slot a delete freed, and an update that changes the hashed column,
	// write the kept hash in place, so the row's clone is all they
	// allocate.
	hashed := probeTable(t, runs+8)
	hashed.ScanKeyHashes([]int{1}, func(int, uint64) {})
	for i := 0; i <= runs; i++ { // AllocsPerRun calls its function runs+1 times
		if _, err := hashed.Delete(I(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	next = 0
	if n := testing.AllocsPerRun(runs, func() {
		ins[0] = I(int64(next))
		next++
		if err := hashed.Insert(ins); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Insert into a reused slot of a table keeping a hash column allocated %v times, want 1", n)
	}
	renamed := suppRow(7)
	names := []Value{S("renamed-a"), S("renamed-b")}
	flip := 0
	if n := testing.AllocsPerRun(runs, func() {
		renamed[1] = names[flip%2]
		flip++
		if _, err := hashed.Update(key, renamed); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Update of the hashed column of a table keeping a hash column allocated %v times, want 1", n)
	}
	if _, slot := hashed.findKey(key); hashed.hashCols[0].hashes[slot] != KeyHash(renamed, []int{1}) {
		t.Errorf("kept hash of row 7 is %x after the updates, KeyHash of its row %x", hashed.hashCols[0].hashes[slot], KeyHash(renamed, []int{1}))
	}
}

// TestHashColumnOnlyWhereScanned: a table keeps a hash column only for
// a column list ScanKeyHashes was asked for, one per list however often
// it is asked; inserts, updates, deletes, Scan, cursors, index lookups,
// CloneTable and snapshots build none, and a clone or a snapshot's copy
// of a table that keeps one does not carry it.
func TestHashColumnOnlyWhereScanned(t *testing.T) {
	db := NewDB()
	tbl, err := db.CreateTable(suppSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("by_nation", HashIndex, "nationkey"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := tbl.Insert(suppRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Update([]Value{I(3)}, suppRow(30)); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Delete(I(4)); err != nil {
		t.Fatal(err)
	}
	tbl.Scan(func(Row) bool { return true })
	for c := tbl.NewCursor(); ; {
		if _, ok := c.Next(); !ok {
			break
		}
	}
	if _, err := tbl.LookupIndex("by_nation", I(1)); err != nil {
		t.Fatal(err)
	}
	if n := len(tbl.hashCols); n != 0 {
		t.Fatalf("a table no key-hash scan read keeps %d hash columns", n)
	}
	for i := 0; i < 3; i++ {
		tbl.ScanKeyHashes([]int{2}, func(int, uint64) {})
	}
	tbl.ScanKeyHashes([]int{1, 2}, func(int, uint64) {})
	if n := len(tbl.hashCols); n != 2 {
		t.Fatalf("after scans of two column lists the table keeps %d hash columns, want 2", n)
	}
	clone, err := CloneTable(NewDB(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(db.AppendSnapshot(nil))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := len(clone.hashCols), len(restored.MustTable(tbl.Schema().Name).hashCols); a != 0 || b != 0 {
		t.Errorf("a clone keeps %d hash columns and a snapshot's copy %d, want none", a, b)
	}
}

// TestIndexBucketAllocs: maintaining an entry of a bucket that exists,
// and probing one, allocates nothing — the bucket is updated in place
// and read in place.
func TestIndexBucketAllocs(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	tbl := probeTable(t, 64)
	r, _ := tbl.Get(I(9))
	ix := tbl.indexes["by_nation"]
	if n := testing.AllocsPerRun(100, func() {
		ix.remove(r, 9)
		ix.insert(r, 9)
	}); n != 0 {
		t.Errorf("remove+insert into an existing bucket allocated %v times, want 0", n)
	}
	probe := []Value{I(1)}
	var buf []Row
	if n := testing.AllocsPerRun(100, func() {
		buf = tbl.LookupVia(buf[:0], ix, probe...)
	}); n != 0 || len(buf) != 16 {
		t.Errorf("a lookup into a warm buffer allocated %v times for %d rows, want 0 for 16", n, len(buf))
	}
}

// TestStatsCountersUnchanged holds every charged work unit of the table
// and index paths where it was before keys stopped being strings and
// buckets became slices: the literals are what the commit before that
// change counted for the same script. RESULTS.txt and the fitted cost
// models rest on these staying put.
func TestStatsCountersUnchanged(t *testing.T) {
	tbl := probeTable(t, 0)
	if err := tbl.CreateIndex("by_name", HashIndex, "name"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := tbl.Insert(suppRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i += 3 {
		tbl.Get(I(int64(i)))
	}
	tbl.Get(I(1000))
	for i := 0; i < 40; i += 5 {
		r := suppRow(i)
		r[2] = I(int64((i + 1) % 4)) // moves between nation buckets
		if _, err := tbl.Update([]Value{I(int64(i))}, r); err != nil {
			t.Fatal(err)
		}
	}
	moved := suppRow(2)
	moved[0] = I(200) // changes the primary key
	if _, err := tbl.Update([]Value{I(2)}, moved); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 40; i += 7 {
		if _, err := tbl.Delete(I(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Delete(I(1)); err == nil {
		t.Fatal("second delete of key 1 succeeded")
	}
	if err := tbl.Insert(suppRow(3)); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	for i := 100; i < 104; i++ {
		if err := tbl.Insert(suppRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	for nk := int64(-1); nk < 5; nk++ {
		if _, err := tbl.LookupIndex("by_nation", I(nk)); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Scan(func(Row) bool { return true })
	if err := tbl.CreateIndex("late", HashIndex, "nationkey", "name"); err != nil {
		t.Fatal(err)
	}
	want := Stats{RowsScanned: 38, IndexProbes: 37, IndexEntries: 52, RowsInserted: 44,
		RowsDeleted: 6, RowsUpdated: 9, IndexWrites: 174}
	if got := *tbl.Stats(); got != want {
		t.Errorf("stats moved:\n got  %+v\n want %+v", got, want)
	}
}
