package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"abivm/internal/testenv"
)

func TestRowCodecRoundTrip(t *testing.T) {
	rows := []Row{
		{},
		{I(0)},
		{I(-1), I(1), I(math.MaxInt64), I(math.MinInt64), I(63), I(64), I(-64), I(-65)},
		{F(0), F(math.Copysign(0, -1)), F(1.5), F(math.Inf(-1)), F(math.NaN()), F(math.SmallestNonzeroFloat64)},
		{S(""), S("a"), S(strings.Repeat("x", 300)), S("nul\x00and\xffbytes")},
		{I(7), S("mixed"), F(-2.25), I(-7)},
	}
	var buf []byte
	for _, r := range rows {
		before := len(buf)
		buf = AppendRow(buf, r)
		if got := len(buf) - before; got != rowSize(r) {
			t.Errorf("row %v: encoded %d bytes, rowSize says %d", r, got, rowSize(r))
		}
	}
	rest := buf
	var scratch Row
	for _, want := range rows {
		var err error
		scratch, rest, err = DecodeRow(scratch[:0], rest, len(want))
		if err != nil {
			t.Fatalf("decoding %v: %v", want, err)
		}
		// SameKey is payload identity: type, int value, float bit pattern.
		if !scratch.SameKey(want) {
			t.Errorf("decoded %v, want %v", scratch, want)
		}
	}
	if len(rest) != 0 {
		t.Errorf("%d bytes left after the last row", len(rest))
	}
}

func TestDecodeRowRejectsDamage(t *testing.T) {
	good := AppendRow(nil, Row{I(300), S("hello"), F(2.5)})
	for n := 0; n < len(good); n++ {
		if _, _, err := DecodeRow(nil, good[:n], 3); err == nil {
			t.Errorf("row truncated to %d of %d bytes decoded", n, len(good))
		}
	}
	for name, bad := range map[string][]byte{
		"unknown tag":        {9, 0},
		"string beyond end":  {byte(TString), 50, 'a'},
		"huge string length": {byte(TString), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"overlong varint":    {byte(TInt), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"non-minimal int":    {byte(TInt), 0x82, 0x00},
		"non-minimal length": {byte(TString), 0x81, 0x00, 'a'},
	} {
		if _, _, err := DecodeRow(nil, bad, 1); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// A value of no known type encodes to something the decoder refuses:
	// the failure is loud, at read time.
	if _, _, err := DecodeRow(nil, AppendRow(nil, Row{{T: 9}}), 1); err == nil {
		t.Error("a value of unknown type round-tripped")
	}
}

// TestWriteSnapshotChargesNoWork: serializing is bookkeeping; the
// work-unit counters the cost model reads must not move, for a base or a
// delta.
func TestWriteSnapshotChargesNoWork(t *testing.T) {
	db := snapshotDB(t)
	before := *db.Stats()
	db.AppendSnapshot(nil)
	dirty := map[string]KeySet{}
	markDirty(dirty, "items", I(3))
	markDirty(dirty, "items", I(9999))
	if _, err := db.AppendSnapshotDelta(nil, dirty); err != nil {
		t.Fatal(err)
	}
	if got := *db.Stats(); got != before {
		t.Fatalf("snapshot writers charged work: %+v", got.Sub(before))
	}
}

// TestSnapshotRefusesGobLayout: the layouts before this one were
// gob streams. Their first bytes (captured from the last commit
// that wrote them) fail with the version error — there is no second
// reader to fall into.
func TestSnapshotRefusesGobLayout(t *testing.T) {
	base, _ := hex.DecodeString("2a7f03010105646244544f01ff80000102010756657273696f6e01040001065461626c657301ff8e00000021ff8d0201")
	delta, _ := hex.DecodeString("30ff8f0301010a646244656c746144544f01ff90000102010756657273696f6e01040001065461626c657301ff940000")
	if _, err := ReadSnapshot(base); err == nil || !strings.Contains(err.Error(), "snapshot version 42, want 3") {
		t.Errorf("gob-era base: %v", err)
	}
	if err := ApplySnapshotDelta(NewDB(), delta); err == nil || !strings.Contains(err.Error(), "snapshot delta version 48, want 3") {
		t.Errorf("gob-era delta: %v", err)
	}
}

// TestReaderLatchesFirstDefect: every read is bounds-checked, the first
// defect sticks, and later reads return zero values without moving.
func TestReaderLatchesFirstDefect(t *testing.T) {
	buf := AppendString(binary.AppendUvarint([]byte{7}, 300), "name")
	buf = AppendRow(binary.AppendVarint(buf, -5), Row{I(1), S("x")})
	r := NewReader(buf)
	if b, u, s, v := r.Byte(), r.Uvarint(), r.Str(), r.Varint(); b != 7 || u != 300 || s != "name" || v != -5 {
		t.Fatalf("read %d %d %q %d", b, u, s, v)
	}
	if row := r.Row(nil, 2); !row.SameKey(Row{I(1), S("x")}) {
		t.Fatalf("row %v", row)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("clean artifact: %v", err)
	}
	for name, read := range map[string]func(*Reader){
		"byte past the end":    func(r *Reader) { r.Rest(); r.Byte() },
		"overlong uvarint":     func(r *Reader) { *r = *NewReader(bytes.Repeat([]byte{0x80}, 11)); r.Uvarint() },
		"string beyond end":    func(r *Reader) { *r = *NewReader([]byte{50, 'a'}); r.Str() },
		"count beyond bytes":   func(r *Reader) { *r = *NewReader([]byte{200, 1, 0, 0}); r.Count(2) },
		"row of a missing tag": func(r *Reader) { *r = *NewReader([]byte{9, 0}); r.Row(nil, 1) },
		"bytes left over":      func(r *Reader) { *r = *NewReader([]byte{1, 2}); r.Byte(); _ = r.Done() },
		"non-minimal uvarint":  func(r *Reader) { *r = *NewReader([]byte{0x80, 0x00}); r.Uvarint() },
		"non-minimal varint":   func(r *Reader) { *r = *NewReader([]byte{0x81, 0x00}); r.Varint() },
	} {
		r := NewReader(buf)
		read(r)
		first := r.Err()
		if first == nil {
			t.Errorf("%s: no error", name)
			continue
		}
		if r.Byte() != 0 || r.Uvarint() != 0 || r.Varint() != 0 || r.Str() != "" || r.Count(1) != 0 || len(r.Row(nil, 1)) != 0 {
			t.Errorf("%s: reads after the defect returned data", name)
		}
		r.Fail("a later failure")
		if r.Err() != first || r.Done() != first {
			t.Errorf("%s: the first defect did not stick", name)
		}
	}
}

// wideDB builds one three-column table of n rows.
func wideDB(t testing.TB, n int) *DB {
	t.Helper()
	db := NewDB()
	schema, err := NewSchema("sales", []Column{
		{Name: "id", Type: TInt}, {Name: "station", Type: TString}, {Name: "amount", Type: TFloat},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tbl.Insert(Row{I(int64(i)), S(fmt.Sprint("st", i%100)), F(float64(i % 977))}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestWriteSnapshotAllocsIndependentOfRows pins the base writer's
// allocation count: the table-name list and one buffer sized for all
// the rows — nothing per table, nothing per row.
func TestWriteSnapshotAllocsIndependentOfRows(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	allocs := func(rows int) float64 {
		db := wideDB(t, rows)
		return testing.AllocsPerRun(10, func() {
			db.AppendSnapshot(nil)
		})
	}
	small, large := allocs(2500), allocs(10000)
	t.Logf("allocs per base write: %.0f at 2,500 rows, %.0f at 10,000", small, large)
	if small > 4 || large != small {
		t.Errorf("base write made %.0f allocations at 2,500 rows and %.0f at 10,000; want the same handful", small, large)
	}
}

// contentKey canonicalizes everything a snapshot preserves: schemas,
// rows (slot order ignored) and index definitions.
func contentKey(db *DB) string {
	var sb strings.Builder
	for _, name := range db.TableNames() {
		tbl := db.tables[name]
		fmt.Fprintf(&sb, "%s%v%v[", name, tbl.schema.Columns, tbl.schema.Key)
		var rows []string
		for _, r := range tbl.rows {
			if r != nil {
				rows = append(rows, EncodeKey(r...))
			}
		}
		sort.Strings(rows)
		fmt.Fprintf(&sb, "%q]", rows)
		for _, ix := range tbl.Indexes() {
			fmt.Fprintf(&sb, "%s/%d/%v", ix.Name, ix.Kind, ix.Cols)
		}
	}
	return sb.String()
}

// reserialize fails unless db writes a snapshot that reads back to the
// same content — the check that a database a decoder handed out is
// internally coherent.
func reserialize(t *testing.T, db *DB) {
	t.Helper()
	again, err := ReadSnapshot(db.AppendSnapshot(nil))
	if err != nil {
		t.Fatalf("re-reading a decoded database: %v", err)
	}
	if got, want := contentKey(again), contentKey(db); got != want {
		t.Fatalf("content changed across a round trip:\n%s\n%s", got, want)
	}
}

// tSnapshot hand-lays a snapshot of one table t(id INTEGER, key id)
// that claims nrows rows and carries rows as given, so a seed can lie
// about either.
func tSnapshot(nrows uint64, rows []byte) []byte {
	b := AppendString([]byte{snapshotVersion, 1}, "t")
	b = append(AppendString(append(b, 1), "id"), byte(TInt))
	b = AppendString(append(b, 1), "id")
	b = append(binary.AppendUvarint(b, nrows), rows...)
	return append(b, 0) // no indexes
}

// itemsDelta hand-lays a snapshot delta for table items whose entries
// are given as raw bytes, claimed to number n.
func itemsDelta(n uint64, entries ...[]byte) []byte {
	b := AppendString([]byte{snapshotDeltaVersion, 1}, "items")
	return append(binary.AppendUvarint(b, n), bytes.Join(entries, nil)...)
}

// FuzzReadSnapshot: ReadSnapshot reads bytes it did not just write. It
// must fail, or hand out a coherent database — never panic, never
// allocate from a count the stream merely claims.
func FuzzReadSnapshot(f *testing.F) {
	valid := snapshotDB(f).AppendSnapshot(nil)
	f.Add(valid)
	for _, b := range testenv.Damaged(valid, 8) {
		f.Add(b)
	}
	one := AppendRow(nil, Row{I(1)})
	f.Add(tSnapshot(1, one))                                                      // the well-formed shape of the seeds below
	f.Add(tSnapshot(1<<40, one))                                                  // inflated row count
	f.Add(tSnapshot(math.MaxUint64, one))                                         // a count that overflows int
	f.Add(tSnapshot(1, append(bytes.Clone(one), 0, 0)))                           // bytes left over
	f.Add(tSnapshot(2, one))                                                      // one row short
	f.Add(tSnapshot(2, append(bytes.Clone(one), one...)))                         // duplicate key
	f.Add(append(tSnapshot(1, one)[:len(tSnapshot(1, one))-1], 0xff, 0xff, 0x03)) // inflated index count
	f.Add(withIndexKind(valid, 1))                                                // an index kind that no longer exists
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := ReadSnapshot(data)
		if err != nil {
			return
		}
		reserialize(t, db)
	})
}

// FuzzApplySnapshotDelta: the same contract for the delta decoder, with
// the target database as the thing that must stay coherent — whether the
// delta applied or failed part-way.
func FuzzApplySnapshotDelta(f *testing.F) {
	db := snapshotDB(f)
	dirty := map[string]KeySet{}
	markDirty(dirty, "items", I(10)) // an upsert
	markDirty(dirty, "items", I(11))
	markDirty(dirty, "items", I(5000)) // a delete of an absent key
	valid, err := db.AppendSnapshotDelta(nil, dirty)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, b := range testenv.Damaged(valid, 8) {
		f.Add(b)
	}
	upsert := AppendRow([]byte{deltaUpsert}, Row{I(10), S("x"), F(1), I(1)})
	remove := AppendRow([]byte{deltaDelete}, Row{I(10)})
	f.Add(itemsDelta(2, upsert, remove))                                                       // well-formed
	f.Add(itemsDelta(1<<40, upsert))                                                           // inflated count
	f.Add(itemsDelta(math.MaxUint64, remove))                                                  // a count that overflows int
	f.Add(itemsDelta(1, AppendRow([]byte{deltaUpsert}, Row{I(10)})))                           // upsert narrower than the schema
	f.Add(itemsDelta(1, []byte{deltaDelete}))                                                  // a key that is not there
	f.Add(itemsDelta(1, AppendRow([]byte{deltaDelete}, Row{I(10), I(11)})))                    // key wider than the schema's
	f.Add(itemsDelta(1, AppendRow([]byte{deltaUpsert}, Row{S("id"), S("x"), S("y"), S("z")}))) // wrong types
	f.Add(itemsDelta(1, AppendRow([]byte{7}, Row{I(10)})))                                     // unknown entry kind
	f.Fuzz(func(t *testing.T, data []byte) {
		db := snapshotDB(t)
		_ = ApplySnapshotDelta(db, data) // an error is an acceptable outcome
		reserialize(t, db)
	})
}
