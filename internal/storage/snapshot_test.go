package storage

import (
	"bytes"
	"strings"
	"testing"
)

func snapshotDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	schema, err := NewSchema("items", []Column{
		{Name: "id", Type: TInt},
		{Name: "name", Type: TString},
		{Name: "price", Type: TFloat},
		{Name: "bucket", Type: TInt},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		row := Row{I(i), S("item"), F(float64(i) * 1.5), I(i % 7)}
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex("by_bucket", HashIndex, "bucket"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("by_price", HashIndex, "price"); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := snapshotDB(t)
	restored, err := ReadSnapshot(db.AppendSnapshot(nil))
	if err != nil {
		t.Fatal(err)
	}
	orig := db.MustTable("items")
	got := restored.MustTable("items")
	if got.Len() != orig.Len() {
		t.Fatalf("restored %d rows, want %d", got.Len(), orig.Len())
	}
	// Row-level equality through the PK.
	orig.Scan(func(r Row) bool {
		rr, ok := got.Get(r[0])
		if !ok {
			t.Fatalf("row %v missing after restore", r)
		}
		for i := range r {
			if !Equal(r[i], rr[i]) {
				t.Fatalf("row %v != %v", r, rr)
			}
		}
		return true
	})
	// Indexes were rebuilt and work.
	rows, err := got.LookupIndex("by_bucket", I(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 { // ids 3,10,...,94
		t.Fatalf("bucket lookup = %d rows", len(rows))
	}
	rows, err = got.LookupIndex("by_price", F(15))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 10 {
		t.Fatalf("price lookup after restore = %v", rows)
	}
	// Restored DB starts with clean counters.
	if restored.Stats().RowsInserted != 0 {
		t.Fatalf("restored stats not reset: %+v", restored.Stats())
	}
}

func TestSnapshotMultipleTables(t *testing.T) {
	db := snapshotDB(t)
	schema, _ := NewSchema("other", []Column{{Name: "k", Type: TInt}}, "k")
	tbl, err := db.CreateTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{I(1)}); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(db.AppendSnapshot(nil))
	if err != nil {
		t.Fatal(err)
	}
	names := restored.TableNames()
	if len(names) != 2 || names[0] != "items" || names[1] != "other" {
		t.Fatalf("tables = %v", names)
	}
}

func TestReadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadSnapshot([]byte("not a snapshot")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// withIndexKind returns a copy of a snapshotDB snapshot whose by_price
// entry names the given index kind.
func withIndexKind(data []byte, kind byte) []byte {
	name := AppendString(nil, "by_price")
	data = bytes.Clone(data)
	data[bytes.LastIndex(data, name)+len(name)] = kind
	return data
}

// TestReadSnapshotRejectsUnknownIndexKind: hash is the only index kind,
// so bytes naming any other — kind 1 was an ordered index — are refused
// with an error, not a panic.
func TestReadSnapshotRejectsUnknownIndexKind(t *testing.T) {
	valid := snapshotDB(t).AppendSnapshot(nil)
	if !bytes.Equal(withIndexKind(valid, byte(HashIndex)), valid) {
		t.Fatal("withIndexKind did not find by_price's kind byte")
	}
	for _, kind := range []byte{1, 2, 0xff} {
		db, err := ReadSnapshot(withIndexKind(valid, kind))
		if err == nil || db != nil {
			t.Fatalf("index kind %d accepted", kind)
		}
		if !strings.Contains(err.Error(), "unknown index kind") {
			t.Fatalf("index kind %d: error %q does not name the kind", kind, err)
		}
	}
}

func TestSnapshotEmptyDB(t *testing.T) {
	restored, err := ReadSnapshot(NewDB().AppendSnapshot(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.TableNames()) != 0 {
		t.Fatalf("tables = %v", restored.TableNames())
	}
}
