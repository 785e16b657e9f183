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

// TestKeyedProbeAllocs pins the key-path rule — a key is bytes until it
// is stored: looking up, deleting or updating under a key the table
// already holds builds no string, and an insert builds exactly the one
// its primary-key map keeps.
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
	// the row's clone and the primary-key string.
	next = 0
	ins := suppRow(0)
	if n := testing.AllocsPerRun(runs, func() {
		ins[0] = I(int64(next))
		next++
		if err := tbl.Insert(ins); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("Insert into existing index buckets allocated %v times, want at most 2", n)
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
