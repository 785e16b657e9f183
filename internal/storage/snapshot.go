package storage

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
)

// Snapshot support: a DB can be serialized to bytes and restored later,
// preserving schemas, rows, and secondary index definitions (indexes are
// rebuilt on load, not stored). Work-unit counters are not part of a
// snapshot. The layout is hand-laid in the packed codec (rowcodec.go):
//
//	snapshot := version:byte tables:count table*
//	table    := name columns:count (name type:byte)*
//	            keycols:count name*
//	            rows:count row*
//	            indexes:count (name kind:byte cols:count name*)*
//
// where count is a uvarint, name a length-prefixed string and row one
// packed row of len(columns) values. Nothing in it is self-describing:
// the version byte is the whole compatibility surface, and a stream of
// any other layout is refused by it rather than converted.

// snapshotVersion guards against reading snapshots of another layout.
// Versions 1 and 2 were gob streams, which never start with this byte.
const snapshotVersion = 3

// AppendSnapshot appends the serialized database to dst. Rows are read
// straight from the slots, not through Scan: a snapshot is bookkeeping,
// and a checkpoint must not charge a table scan to the work-unit
// counters the cost model reads. Tables go in name order and rows in
// slot order, so identical databases produce identical bytes. dst is
// grown once, to the exact size of the rows plus slack for the headers.
func (db *DB) AppendSnapshot(dst []byte) []byte {
	names := db.TableNames()
	size := 0
	for _, name := range names {
		for _, r := range db.tables[name].rows {
			if r != nil {
				size += rowSize(r)
			}
		}
	}
	dst = slices.Grow(dst, size+64*(1+len(names)))
	dst = append(dst, snapshotVersion)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		t := db.tables[name]
		schema := t.Schema()
		dst = AppendString(dst, name)
		dst = binary.AppendUvarint(dst, uint64(len(schema.Columns)))
		for _, c := range schema.Columns {
			dst = append(AppendString(dst, c.Name), byte(c.Type))
		}
		dst = appendColNames(dst, schema, schema.Key)
		dst = binary.AppendUvarint(dst, uint64(t.live))
		for _, r := range t.rows {
			if r != nil {
				dst = AppendRow(dst, r)
			}
		}
		indexes := t.Indexes()
		dst = binary.AppendUvarint(dst, uint64(len(indexes)))
		for _, ix := range indexes {
			dst = append(AppendString(dst, ix.Name), byte(ix.Kind))
			dst = appendColNames(dst, schema, ix.Cols)
		}
	}
	return dst
}

// appendColNames appends a count and the names of the columns at the
// given positions.
func appendColNames(dst []byte, schema *Schema, cols []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cols)))
	for _, c := range cols {
		dst = AppendString(dst, schema.Columns[c].Name)
	}
	return dst
}

// readNames is appendColNames' inverse.
func readNames(r *Reader) []string {
	names := make([]string, r.Count(1))
	for i := range names {
		names[i] = r.Str()
	}
	return names
}

// readRows decodes a row count and that many packed rows of arity
// values, handing each to fn. The row is reused between calls, so fn
// must copy what it keeps. The count is checked against the bytes that
// many rows need at the least; nothing is allocated from it.
func readRows(r *Reader, arity int, fn func(Row) error) error {
	n := r.Count(arity * MinValueSize)
	row := make(Row, 0, arity)
	for i := 0; i < n; i++ {
		row = r.Row(row[:0], arity)
		if err := r.Err(); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		if err := fn(row); err != nil {
			return err
		}
	}
	return r.Err()
}

// ReadSnapshot restores a database from the bytes AppendSnapshot wrote.
func ReadSnapshot(data []byte) (*DB, error) {
	r := NewReader(data)
	if v := r.Byte(); r.Err() == nil && v != snapshotVersion {
		return nil, fmt.Errorf("storage: snapshot version %d, want %d", v, snapshotVersion)
	}
	db := NewDB()
	for n := r.Count(1); n > 0 && r.Err() == nil; n-- {
		name := r.Str()
		cols := make([]Column, r.Count(2))
		for i := range cols {
			cols[i] = Column{Name: r.Str(), Type: Type(r.Byte())}
		}
		keyCols := readNames(r)
		if r.Err() != nil {
			break
		}
		schema, err := NewSchema(name, cols, keyCols...)
		if err != nil {
			return nil, fmt.Errorf("storage: snapshot table %s: %w", name, err)
		}
		tbl, err := db.CreateTable(schema)
		if err != nil {
			return nil, err
		}
		if err := readRows(r, len(cols), tbl.Insert); err != nil {
			return nil, fmt.Errorf("storage: snapshot rows of %s: %w", name, err)
		}
		for i := r.Count(3); i > 0 && r.Err() == nil; i-- {
			ixName, kind, ixCols := r.Str(), IndexKind(r.Byte()), readNames(r)
			if r.Err() != nil {
				break
			}
			if err := tbl.CreateIndex(ixName, kind, ixCols...); err != nil {
				return nil, fmt.Errorf("storage: snapshot index %s: %w", ixName, err)
			}
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("storage: decoding snapshot: %w", err)
	}
	// Restoring charged insert/index counters; a fresh DB starts clean.
	db.stats = Stats{}
	return db, nil
}

// Snapshot deltas: the differential counterpart of AppendSnapshot /
// ReadSnapshot. A delta captures only the rows behind a caller-provided
// dirty-key set, so a database that changes a handful of rows between
// checkpoints serializes a handful of rows instead of every table.
//
//	delta := version:byte tables:count (name entries:count entry*)*
//	entry := 1 row       an upsert: the full current row of a dirty key
//	       | 0 keyrow    a delete: the key values of a dirty key now absent

// snapshotDeltaVersion guards against reading snapshot deltas of another
// layout; it moves in step with snapshotVersion.
const snapshotDeltaVersion = 3

const (
	deltaDelete byte = iota
	deltaUpsert
)

// KeySet is one table's dirty keys: encoded primary key -> the key
// values. Over-marking is harmless — a dirty key whose row is unchanged
// round-trips as an identical upsert.
type KeySet map[string][]Value

// AppendSnapshotDelta appends the state of the dirty keys to dst: a
// dirty key present in its table becomes an upsert carrying the full
// current row, an absent one becomes a delete. Applying the delta to any
// database that agrees with this one on every non-dirty key (via
// ApplySnapshotDelta) reproduces this database's logical content.
// Tables and keys are visited in sorted order, so identical (db, dirty)
// pairs produce identical bytes. Index definitions are not part of a
// delta — they belong to the base snapshot.
func (db *DB) AppendSnapshotDelta(dst []byte, dirty map[string]KeySet) ([]byte, error) {
	names := make([]string, 0, len(dirty))
	for name, ks := range dirty {
		if len(ks) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	dst = append(dst, snapshotDeltaVersion)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		t, ok := db.tables[name]
		if !ok {
			return dst, fmt.Errorf("storage: snapshot delta for unknown table %q", name)
		}
		ks := dirty[name]
		keys := make([]string, 0, len(ks))
		for k := range ks {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		dst = AppendString(dst, name)
		dst = binary.AppendUvarint(dst, uint64(len(keys)))
		for _, k := range keys {
			// Resolve through the primary-key index directly: a checkpoint
			// must not charge probe work to the shared maintenance counters.
			if _, slot := t.findKey(ks[k]); slot >= 0 {
				dst = AppendRow(append(dst, deltaUpsert), t.rows[slot])
			} else {
				dst = AppendRow(append(dst, deltaDelete), ks[k])
			}
		}
	}
	return dst, nil
}

// ApplySnapshotDelta applies a delta to db in place: upserts update the
// existing row or insert a new one, deletes remove the row when present
// (deleting an already-absent key is a no-op — the writer may have
// over-marked a key that never reached this base). Every table named by
// the delta must exist in db.
func ApplySnapshotDelta(db *DB, data []byte) error {
	r := NewReader(data)
	if v := r.Byte(); r.Err() == nil && v != snapshotDeltaVersion {
		return fmt.Errorf("storage: snapshot delta version %d, want %d", v, snapshotDeltaVersion)
	}
	for n := r.Count(1); n > 0 && r.Err() == nil; n-- {
		name := r.Str()
		if r.Err() != nil {
			break
		}
		tbl, err := db.Table(name)
		if err != nil {
			return fmt.Errorf("storage: snapshot delta: %w", err)
		}
		schema := tbl.Schema()
		row := make(Row, 0, len(schema.Columns))
		for e := r.Count(1 + MinValueSize); e > 0 && r.Err() == nil; e-- {
			op := r.Byte()
			switch op {
			case deltaUpsert:
				row = r.Row(row[:0], len(schema.Columns))
			case deltaDelete:
				row = r.Row(row[:0], len(schema.Key))
			default:
				r.Fail("unknown delta entry kind %d", op)
			}
			if r.Err() != nil {
				break
			}
			if err := applyDeltaEntry(tbl, op, row); err != nil {
				return fmt.Errorf("storage: snapshot delta for %s: %w", name, err)
			}
		}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("storage: decoding snapshot delta: %w", err)
	}
	return nil
}

// applyDeltaEntry applies one decoded delta entry: row is the full row
// of an upsert or the key values of a delete.
func applyDeltaEntry(tbl *Table, op byte, row Row) error {
	keyVals := row
	if op == deltaUpsert {
		keyVals = row.Project(tbl.Schema().Key)
	}
	_, found := tbl.Get(keyVals...)
	switch {
	case op == deltaUpsert && found:
		_, err := tbl.Update(keyVals, row)
		return err
	case op == deltaUpsert:
		return tbl.Insert(row)
	case found:
		_, err := tbl.Delete(keyVals...)
		return err
	}
	return nil
}
