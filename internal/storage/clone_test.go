package storage

import (
	"testing"

	"abivm/internal/testenv"
)

func TestCloneTable(t *testing.T) {
	src := NewDB()
	schema, err := NewSchema("t", []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TString}}, "k")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := src.CreateTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := orig.Insert(Row{I(int64(i)), S("v")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := orig.CreateIndex("t_v", HashIndex, "v"); err != nil {
		t.Fatal(err)
	}

	dst := NewDB()
	clone, err := CloneTable(dst, orig)
	if err != nil {
		t.Fatal(err)
	}
	if clone.Len() != orig.Len() {
		t.Fatalf("clone has %d rows, want %d", clone.Len(), orig.Len())
	}
	if clone.IndexOn("v") == nil {
		t.Fatal("clone lost the secondary index")
	}

	// Scan order must match: the clone is a deterministic snapshot.
	var a, b []Row
	orig.Scan(func(r Row) bool { a = append(a, r); return true })
	clone.Scan(func(r Row) bool { b = append(b, r); return true })
	for i := range a {
		if EncodeKey(a[i]...) != EncodeKey(b[i]...) {
			t.Fatalf("row %d differs: %v vs %v", i, a[i], b[i])
		}
	}

	// Mutating the clone must not leak into the source.
	if _, err := clone.Delete(I(0)); err != nil {
		t.Fatal(err)
	}
	if err := clone.Insert(Row{I(99), S("new")}); err != nil {
		t.Fatal(err)
	}
	if orig.Len() != 5 {
		t.Fatalf("source mutated through clone: %d rows", orig.Len())
	}
	if _, ok := orig.Get(I(99)); ok {
		t.Fatal("insert into clone visible in source")
	}
}

// TestCloneTableLeavesSourceStats: cloning only reads the source, its
// work counters included. Shards recovering in the same step clone one
// live table on different goroutines, so a counter bump here would be a
// data race.
func TestCloneTableLeavesSourceStats(t *testing.T) {
	schema, err := NewSchema("t", []Column{{Name: "k", Type: TInt}}, "k")
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewDB().CreateTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := src.Insert(Row{I(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	before := *src.Stats()
	if _, err := CloneTable(NewDB(), src); err != nil {
		t.Fatal(err)
	}
	if after := *src.Stats(); after != before {
		t.Errorf("CloneTable moved the source's stats: %+v, want %+v", after, before)
	}
}

// TestCloneTableCopiesEachRowOnceAllocs: cloning a table allocates what
// inserting its rows into a fresh table does — Insert's own copy of each
// row — and not a second copy on top.
func TestCloneTableCopiesEachRowOnceAllocs(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	const rows = 500
	schema, err := NewSchema("t", []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TString}}, "k")
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewDB().CreateTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	var all []Row
	for i := 0; i < rows; i++ {
		all = append(all, Row{I(int64(i)), S("v")})
		if err := src.Insert(all[i]); err != nil {
			t.Fatal(err)
		}
	}
	inserting := testing.AllocsPerRun(10, func() {
		out, err := NewDB().CreateTable(schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range all {
			if err := out.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	})
	cloning := testing.AllocsPerRun(10, func() {
		if _, err := CloneTable(NewDB(), src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs for %d rows: %.0f inserting, %.0f cloning", rows, inserting, cloning)
	if cloning > inserting {
		t.Errorf("CloneTable allocates %.0f for %d rows, inserting them allocates %.0f: rows are copied more than once", cloning, rows, inserting)
	}
}
