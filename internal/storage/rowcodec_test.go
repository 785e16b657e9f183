package storage

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
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
	if err := db.WriteSnapshot(io.Discard); err != nil {
		t.Fatal(err)
	}
	dirty := map[string]KeySet{}
	markDirty(dirty, "items", I(3))
	markDirty(dirty, "items", I(9999))
	if err := db.WriteSnapshotDelta(io.Discard, dirty); err != nil {
		t.Fatal(err)
	}
	if got := *db.Stats(); got != before {
		t.Fatalf("snapshot writers charged work: %+v", got.Sub(before))
	}
}

// TestSnapshotRefusesV1: the version moved with the row format, and an
// old stream fails with the version error instead of decoding rows from
// fields that no longer exist.
func TestSnapshotRefusesV1(t *testing.T) {
	var base, delta bytes.Buffer
	if err := gob.NewEncoder(&base).Encode(dbDTO{Version: 1, Tables: []tableDTO{{Name: "t"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&base); err == nil || !strings.Contains(err.Error(), "snapshot version 1, want 2") {
		t.Errorf("v1 base: %v", err)
	}
	if err := gob.NewEncoder(&delta).Encode(dbDeltaDTO{Version: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ApplySnapshotDelta(NewDB(), &delta); err == nil || !strings.Contains(err.Error(), "snapshot delta version 1, want 2") {
		t.Errorf("v1 delta: %v", err)
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
// allocation count: it is a property of the number of tables (the gob
// envelope, one row buffer per table), not of the number of rows.
func TestWriteSnapshotAllocsIndependentOfRows(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	allocs := func(rows int) float64 {
		db := wideDB(t, rows)
		return testing.AllocsPerRun(10, func() {
			if err := db.WriteSnapshot(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2500), allocs(10000)
	t.Logf("allocs per base write: %.0f at 2,500 rows, %.0f at 10,000", small, large)
	if small > 100 {
		t.Errorf("base write of a 2,500-row table made %.0f allocations; want O(tables)", small)
	}
	// Four times the rows may add a few doublings of gob's own message
	// buffer, nothing per row.
	if large-small > 8 {
		t.Errorf("allocations grew from %.0f to %.0f with the row count", small, large)
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
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatalf("re-serializing a decoded database: %v", err)
	}
	again, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("re-reading a decoded database: %v", err)
	}
	if got, want := contentKey(again), contentKey(db); got != want {
		t.Fatalf("content changed across a round trip:\n%s\n%s", got, want)
	}
}

// damaged returns variations of a valid stream: every short prefix up to
// a stride, and single-bit flips spread over the stream.
func damaged(valid []byte) [][]byte {
	var out [][]byte
	for n := 0; n < len(valid); n += 1 + len(valid)/40 {
		out = append(out, valid[:n])
	}
	for i := 0; i < len(valid); i += 1 + len(valid)/60 {
		flipped := bytes.Clone(valid)
		flipped[i] ^= 1 << (i % 8)
		out = append(out, flipped)
	}
	return out
}

func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadSnapshot: ReadSnapshot reads bytes it did not just write. It
// must fail, or hand out a coherent database — never panic, never
// allocate from a count the stream merely claims.
func FuzzReadSnapshot(f *testing.F) {
	var valid bytes.Buffer
	if err := snapshotDB(f).WriteSnapshot(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, b := range damaged(valid.Bytes()) {
		f.Add(b)
	}
	cols := []Column{{Name: "id", Type: TInt}}
	one := AppendRow(nil, Row{I(1)})
	for _, td := range []tableDTO{
		{NRows: 1 << 40, Rows: one},                        // inflated row count
		{NRows: -1, Rows: one},                             // negative row count
		{NRows: 1, Rows: append(bytes.Clone(one), 0, 0)},   // bytes left over
		{NRows: 2, Rows: one},                              // one row short
		{NRows: 2, Rows: append(bytes.Clone(one), one...)}, // duplicate key
	} {
		td.Name, td.Columns, td.KeyCols = "t", cols, []string{"id"}
		f.Add(gobBytes(f, dbDTO{Version: snapshotVersion, Tables: []tableDTO{td}}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := ReadSnapshot(bytes.NewReader(data))
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
	var valid bytes.Buffer
	if err := db.WriteSnapshotDelta(&valid, dirty); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, b := range damaged(valid.Bytes()) {
		f.Add(b)
	}
	row := AppendRow(nil, Row{I(10), S("x"), F(1), I(1)})
	key := AppendRow(nil, Row{I(10)})
	for _, td := range []tableDeltaDTO{
		{NUpserts: 1 << 40, Upserts: row},                            // inflated count
		{NDeletes: -3, Deletes: key},                                 // negative count
		{NUpserts: 1, Upserts: key},                                  // upsert narrower than the schema
		{NDeletes: 1, Deletes: nil},                                  // a key that is not there
		{NDeletes: 1, Deletes: AppendRow(nil, Row{I(10), I(11)})},    // key wider than the schema's
		{NUpserts: 1, Upserts: AppendRow(nil, Row{S("id"), S("x")})}, // wrong types
	} {
		td.Name = "items"
		f.Add(gobBytes(f, dbDeltaDTO{Version: snapshotDeltaVersion, Tables: []tableDeltaDTO{td}}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db := snapshotDB(t)
		_ = ApplySnapshotDelta(db, bytes.NewReader(data)) // an error is an acceptable outcome
		reserialize(t, db)
	})
}
