package storage

import (
	"bytes"
	"strings"
	"testing"
)

// markDirty records a key in a dirty set the way a writer would.
func markDirty(dirty map[string]KeySet, table string, keyVals ...Value) {
	ks, ok := dirty[table]
	if !ok {
		ks = KeySet{}
		dirty[table] = ks
	}
	ks[EncodeKey(keyVals...)] = keyVals
}

// sameTable fails the test unless got and want hold identical row sets.
func sameTable(t *testing.T, got, want *Table) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("table %s: %d rows, want %d", want.Schema().Name, got.Len(), want.Len())
	}
	want.Scan(func(r Row) bool {
		rr, ok := got.Get(r.Project(want.Schema().Key)...)
		if !ok {
			t.Fatalf("row %v missing after delta apply", r)
		}
		for i := range r {
			if !Equal(r[i], rr[i]) {
				t.Fatalf("row %v != %v", r, rr)
			}
		}
		return true
	})
}

func TestSnapshotDeltaRoundTrip(t *testing.T) {
	db := snapshotDB(t)

	// Base: a full snapshot restored into a second database.
	base := db.AppendSnapshot(nil)
	restored, err := ReadSnapshot(base)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate the original: an update, an insert, a delete.
	tbl := db.MustTable("items")
	dirty := map[string]KeySet{}
	if _, err := tbl.Update([]Value{I(10)}, Row{I(10), S("updated"), F(99), I(1)}); err != nil {
		t.Fatal(err)
	}
	markDirty(dirty, "items", I(10))
	if err := tbl.Insert(Row{I(500), S("new"), F(5), I(2)}); err != nil {
		t.Fatal(err)
	}
	markDirty(dirty, "items", I(500))
	if _, err := tbl.Delete(I(20)); err != nil {
		t.Fatal(err)
	}
	markDirty(dirty, "items", I(20))
	// Over-marking: a key whose row never changed, and a key that never
	// existed anywhere. Both must be harmless.
	markDirty(dirty, "items", I(30))
	markDirty(dirty, "items", I(9999))

	delta, err := db.AppendSnapshotDelta(nil, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) >= len(base) {
		t.Fatalf("delta (%d bytes) not smaller than base snapshot (%d bytes)", len(delta), len(base))
	}
	if err := ApplySnapshotDelta(restored, delta); err != nil {
		t.Fatal(err)
	}
	sameTable(t, restored.MustTable("items"), tbl)
}

func TestSnapshotDeltaDeterministicBytes(t *testing.T) {
	db := snapshotDB(t)
	tbl := db.MustTable("items")
	dirty := map[string]KeySet{}
	for _, id := range []int64{3, 1, 4, 1, 5, 9, 2, 6} {
		markDirty(dirty, "items", I(id))
	}
	if _, err := tbl.Delete(I(9)); err != nil {
		t.Fatal(err)
	}
	a, err := db.AppendSnapshotDelta(nil, dirty)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.AppendSnapshotDelta(nil, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical (db, dirty) pairs produced different delta bytes")
	}
}

func TestSnapshotDeltaUnknownTable(t *testing.T) {
	db := snapshotDB(t)
	dirty := map[string]KeySet{}
	markDirty(dirty, "ghost", I(1))
	_, err := db.AppendSnapshotDelta(nil, dirty)
	if err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("err = %v, want unknown-table error", err)
	}

	// Applying a delta that names a table the target lacks must fail too.
	dirty = map[string]KeySet{}
	markDirty(dirty, "items", I(1))
	delta, err := db.AppendSnapshotDelta(nil, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplySnapshotDelta(NewDB(), delta); err == nil {
		t.Fatal("applying a delta to a DB missing the table succeeded")
	}
}

func TestSnapshotDeltaVersionAndGarbage(t *testing.T) {
	db := snapshotDB(t)
	if err := ApplySnapshotDelta(db, []byte("not a delta")); err == nil {
		t.Fatal("decoding garbage succeeded")
	}
	// An empty dirty set still writes a valid (empty) delta.
	empty, err := db.AppendSnapshotDelta(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplySnapshotDelta(db, empty); err != nil {
		t.Fatal(err)
	}
}
