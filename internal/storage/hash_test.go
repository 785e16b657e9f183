package storage

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// collide maps every key hash of the package to one value until the
// test ends, so every primary key and index key shares one chain and
// only the column-by-column check tells keys apart.
func collide(t testing.TB) {
	KeyHash = func(Row, []int) uint64 { return 42 }
	t.Cleanup(func() { KeyHash = HashCols })
}

// TestHashColsAgreesWithKeys: over the golden values, HashCols is
// Row.Hash of the projection, two values hash alike exactly when
// SameKey (and so EncodeKey) says they are one key, and a table keyed by
// them — with the real hash and with every key on one chain — keeps
// them apart: −0 and +0, the two NaN payloads, INT 1 and FLOAT 1.
func TestHashColsAgreesWithKeys(t *testing.T) {
	vals := goldenValues()
	for i, a := range vals {
		if got, want := HashCols(Row{S("pad"), a, I(9)}, []int{1}), (Row{a}).Hash(); got != want {
			t.Errorf("value %d (%v): HashCols %x, Row.Hash %x", i, a, got, want)
		}
		pair := Row{a, vals[(i+1)%len(vals)]}
		if got, want := HashCols(pair, []int{1, 0}), (Row{pair[1], pair[0]}).Hash(); got != want {
			t.Errorf("values %d and %d: HashCols over two columns %x, Row.Hash %x", i, (i+1)%len(vals), got, want)
		}
		for j, b := range vals {
			same := Row{a}.SameKey(Row{b})
			if same != (EncodeKey(a) == EncodeKey(b)) {
				t.Errorf("values %d and %d: SameKey %t disagrees with EncodeKey", i, j, same)
			}
			if hashed := (Row{a}).Hash() == (Row{b}).Hash(); hashed != same {
				t.Errorf("values %d (%v) and %d (%v): equal hashes %t, SameKey %t", i, a, j, b, hashed, same)
			}
		}
	}

	for _, hashing := range []string{"hashed", "one chain"} {
		if hashing == "one chain" {
			collide(t)
		}
		for _, typ := range []Type{TFloat, TString} {
			schema, err := NewSchema("golden", []Column{{Name: "k", Type: typ}, {Name: "i", Type: TInt}}, "k")
			if err != nil {
				t.Fatal(err)
			}
			tbl := NewTable(schema, nil)
			var keys []Value
			for i, v := range vals {
				if (v.T == TString) == (typ == TString) {
					keys = append(keys, v)
					if err := tbl.Insert(Row{v, I(int64(i))}); err != nil {
						t.Fatalf("%s: inserting value %d (%v): %v", hashing, i, v, err)
					}
				}
			}
			if tbl.Len() != len(keys) {
				t.Fatalf("%s: %d rows for %d distinct keys", hashing, tbl.Len(), len(keys))
			}
			for _, k := range keys {
				if r, ok := tbl.Get(k); !ok || r[0] != k {
					t.Errorf("%s: Get(%v) found %v, %t", hashing, k, r, ok)
				}
			}
		}
	}
}

// The table of the differential script: a composite primary key whose
// FLOAT column also holds INTs, zeros of both signs and two NaN payloads,
// and whose TEXT column holds a NUL, plus two secondary indexes, one of
// them over a FLOAT column.
var (
	scriptA = []Value{I(0), I(1), F(0), F(math.Copysign(0, -1)), F(1),
		F(math.Float64frombits(0x7ff8000000000001)), F(math.Float64frombits(0xfff8000000000abc)), F(2.5)}
	scriptB = []Value{S(""), S("a"), S("a\x00b"), S("b")}
	scriptC = []Value{I(0), I(1), I(2), I(3)}
	scriptD = []Value{S(""), S("x"), S("y")}
)

func scriptDB(t testing.TB) *DB {
	schema, err := NewSchema("t", []Column{
		{Name: "a", Type: TFloat}, {Name: "b", Type: TString},
		{Name: "c", Type: TInt}, {Name: "d", Type: TString},
	}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	tbl, err := db.CreateTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("by_c", HashIndex, "c"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("by_da", HashIndex, "d", "a"); err != nil {
		t.Fatal(err)
	}
	return db
}

// script reads operations and their operands from bytes; when the bytes
// run out every read returns 0 and done reports true.
type script struct {
	b []byte
	i int
}

func (s *script) done() bool { return s.i >= len(s.b) }

// next returns the next byte as an int, or 0.
func (s *script) next() int {
	if s.done() {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

func (s *script) pick(pool []Value) Value { return pool[s.next()%len(pool)] }

// scriptHashed is the column lists whose key hashes the script's table
// keeps: one a secondary index also covers, and two columns in another
// order than the table's.
var scriptHashed = [][]int{{2}, {3, 0}}

// keepHashes scans tbl's key hashes of every scriptHashed list, which
// builds the kept columns the table does not have yet.
func keepHashes(tbl *Table) {
	for _, cols := range scriptHashed {
		tbl.ScanKeyHashes(cols, func(int, uint64) {})
	}
}

// checkHashes fails unless tbl keeps exactly want hash columns and each
// live slot's kept hash is KeyHash of its row, which ScanKeyHashes hands
// out for exactly the live slots, in slot order.
func checkHashes(t testing.TB, tbl *Table, want int) {
	if len(tbl.hashCols) != want {
		t.Fatalf("table keeps %d hash columns, want %d", len(tbl.hashCols), want)
	}
	for _, c := range tbl.hashCols {
		var live []int
		for slot, r := range tbl.rows {
			if r == nil {
				continue
			}
			live = append(live, slot)
			if got, want := c.hashes[slot], KeyHash(r, c.cols); got != want {
				t.Fatalf("slot %d (%v): kept hash of columns %v is %x, KeyHash %x", slot, r, c.cols, got, want)
			}
		}
		var seen []int
		tbl.ScanKeyHashes(c.cols, func(slot int, h uint64) {
			seen = append(seen, slot)
			if h != c.hashes[slot] {
				t.Fatalf("ScanKeyHashes handed slot %d hash %x, it keeps %x", slot, h, c.hashes[slot])
			}
		})
		if !slices.Equal(seen, live) {
			t.Fatalf("ScanKeyHashes visited slots %v, the live ones are %v", seen, live)
		}
	}
}

// runTableScript plays a script of Insert, Update under the same key and
// under a new one, Delete, Get, LookupIndex, CloneTable, snapshot round
// trips and snapshot-delta round trips against a reference keyed by
// EncodeKey, and fails at the first disagreement. The table keeps the
// key hashes of scriptHashed throughout, checked after every operation;
// a clone or a snapshot's copy must come without them, and gets them
// again before the script goes on.
func runTableScript(t testing.TB, ops []byte) {
	db := scriptDB(t)
	tbl := db.MustTable("t")
	keepHashes(tbl)
	ref := map[string]Row{}
	base, dirty := db.AppendSnapshot(nil), KeySet{}
	mark := func(key []Value) { dirty[EncodeKey(key...)] = key }
	s := &script{b: ops}
	for step := 0; !s.done(); step++ {
		op := s.next() % 12
		key := []Value{s.pick(scriptA), s.pick(scriptB)}
		k := EncodeKey(key...)
		old, held := ref[k]
		row := Row{key[0], key[1], s.pick(scriptC), s.pick(scriptD)}
		switch op {
		case 0, 1: // Insert
			err := tbl.Insert(row)
			switch {
			case held && !errors.Is(err, ErrDuplicateKey):
				t.Fatalf("step %d: Insert over %v: %v, want a duplicate key", step, old, err)
			case !held && err != nil:
				t.Fatalf("step %d: Insert %v: %v", step, row, err)
			case !held:
				ref[k] = row
				mark(key)
			}
		case 2, 3: // Update under the same key, or under a new one
			newKey := key
			if op == 3 {
				newKey = []Value{s.pick(scriptA), s.pick(scriptB)}
				row[0], row[1] = newKey[0], newKey[1]
			}
			nk := EncodeKey(newKey...)
			_, taken := ref[nk]
			got, err := tbl.Update(key, row)
			switch {
			case !held && !errors.Is(err, ErrNotFound):
				t.Fatalf("step %d: Update of absent key %v: %v, want not found", step, key, err)
			case held && nk != k && taken && !errors.Is(err, ErrDuplicateKey):
				t.Fatalf("step %d: Update onto held key %v: %v, want a duplicate key", step, newKey, err)
			case held && (nk == k || !taken):
				if err != nil || !got.SameKey(old) || !tbl.Displaced(key...).SameKey(old) {
					t.Fatalf("step %d: Update %v -> %v returned %v, %v, want %v", step, key, row, got, err, old)
				}
				delete(ref, k)
				ref[nk] = row
				mark(key)
				mark(newKey)
			}
		case 4: // Delete
			got, err := tbl.Delete(key...)
			switch {
			case !held && !errors.Is(err, ErrNotFound):
				t.Fatalf("step %d: Delete of absent key %v: %v, want not found", step, key, err)
			case held && (err != nil || !got.SameKey(old) || !tbl.Displaced(key...).SameKey(old) || tbl.Stored(key...) != nil):
				t.Fatalf("step %d: Delete %v returned %v, %v, want %v gone", step, key, got, err, old)
			case held:
				delete(ref, k)
				mark(key)
			}
		case 5, 6: // Get
			got, ok := tbl.Get(key...)
			if ok != held || (held && !got.SameKey(old)) {
				t.Fatalf("step %d: Get %v found %v, %t, want %v, %t", step, key, got, ok, old, held)
			}
		case 7: // LookupIndex
			checkLookup(t, tbl, ref, "by_c", []int{2}, row[2:3])
			checkLookup(t, tbl, ref, "by_da", []int{3, 0}, Row{row[3], row[0]})
		case 8: // CloneTable: the script goes on against the clone
			clone := NewDB()
			var err error
			if tbl, err = CloneTable(clone, tbl); err != nil {
				t.Fatalf("step %d: CloneTable: %v", step, err)
			}
			db = clone
			checkContent(t, tbl, ref)
			checkHashes(t, tbl, 0)
			keepHashes(tbl)
		case 9: // snapshot round trip: the script goes on against the copy
			var err error
			if db, err = ReadSnapshot(db.AppendSnapshot(nil)); err != nil {
				t.Fatalf("step %d: ReadSnapshot: %v", step, err)
			}
			tbl = db.MustTable("t")
			checkContent(t, tbl, ref)
			checkHashes(t, tbl, 0)
			keepHashes(tbl)
		case 10, 11: // snapshot delta since the last base, applied to that base
			delta, err := db.AppendSnapshotDelta(nil, map[string]KeySet{"t": dirty})
			if err != nil {
				t.Fatalf("step %d: AppendSnapshotDelta: %v", step, err)
			}
			restored, err := ReadSnapshot(base)
			if err != nil {
				t.Fatal(err)
			}
			if err := ApplySnapshotDelta(restored, delta); err != nil {
				t.Fatalf("step %d: ApplySnapshotDelta: %v", step, err)
			}
			checkContent(t, restored.MustTable("t"), ref)
			checkHashes(t, restored.MustTable("t"), 0)
			base, dirty = db.AppendSnapshot(nil), KeySet{}
		}
		checkHashes(t, tbl, len(scriptHashed))
	}
	checkContent(t, tbl, ref)
}

// checkContent fails unless tbl holds exactly the reference's rows, each
// found under its key and in every index bucket it belongs to.
func checkContent(t testing.TB, tbl *Table, ref map[string]Row) {
	if tbl.Len() != len(ref) {
		t.Fatalf("table holds %d rows, reference %d", tbl.Len(), len(ref))
	}
	for k, want := range ref {
		if got := tbl.Stored(want[0], want[1]); !got.SameKey(want) {
			t.Fatalf("key %q holds %v, want %v", k, got, want)
		}
	}
	tbl.EachStored(func(r Row) {
		if !ref[EncodeKey(r[0], r[1])].SameKey(r) {
			t.Fatalf("table holds %v, which the reference does not", r)
		}
	})
	for _, c := range scriptC {
		checkLookup(t, tbl, ref, "by_c", []int{2}, Row{c})
	}
	for _, d := range scriptD {
		for _, a := range scriptA {
			checkLookup(t, tbl, ref, "by_da", []int{3, 0}, Row{d, a})
		}
	}
}

// checkLookup compares an index lookup of vals with the reference rows
// whose columns cols hold vals, as sets.
func checkLookup(t testing.TB, tbl *Table, ref map[string]Row, index string, cols []int, vals Row) {
	got, err := tbl.LookupIndex(index, vals...)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, r := range ref {
		if r.Project(cols).SameKey(vals) {
			want = append(want, EncodeKey(r...))
		}
	}
	have := make([]string, len(got))
	for i, r := range got {
		have[i] = EncodeKey(r...)
	}
	slices.Sort(want)
	slices.Sort(have)
	if !slices.Equal(have, want) {
		t.Fatalf("%s lookup of %v: %d rows, want %d", index, vals, len(have), len(want))
	}
}

// TestTableOpsMatchEncodedKeys plays seeded scripts against the
// reference, once with the real key hash and once with every key on one
// chain. Mutation-checked: a chain walk that takes the first slot or
// bucket without comparing its columns fails it, and so does an Insert
// or an Update that leaves a kept key hash stale.
func TestTableOpsMatchEncodedKeys(t *testing.T) {
	for _, hashing := range []string{"hashed", "one chain"} {
		if hashing == "one chain" {
			collide(t)
		}
		for seed := int64(1); seed <= 20; seed++ {
			ops := make([]byte, 3000)
			rand.New(rand.NewSource(seed)).Read(ops)
			t.Run(fmt.Sprintf("%s/seed%d", hashing, seed), func(t *testing.T) { runTableScript(t, ops) })
		}
	}
}

// FuzzTableOps is TestTableOpsMatchEncodedKeys over fuzzed scripts.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, false)
	f.Add([]byte("insert, update, delete, clone, snapshot"), true)
	f.Fuzz(func(t *testing.T, ops []byte, oneChain bool) {
		if oneChain {
			collide(t)
		}
		runTableScript(t, ops)
	})
}
