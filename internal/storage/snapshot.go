package storage

import (
	"fmt"
	"io"
	"sort"

	"encoding/gob"
)

// Snapshot support: a DB can be serialized to a stream and restored
// later, preserving schemas, rows, and secondary index definitions
// (indexes are rebuilt on load, not stored). Work-unit counters are not
// part of a snapshot. The format is encoding/gob over explicit DTOs, so
// internal representation changes never break old snapshots silently —
// the DTO types below are the compatibility surface. Rows are the one
// exception to gob: they travel as a count plus one byte string of
// packed rows (see AppendRow), because reflecting over a struct per
// value dominated both writing and reading a snapshot.

// snapshotVersion guards against reading snapshots from incompatible
// layouts. Version 1 carried rows as gob structs; nothing persists
// across builds, so a v1 stream is refused rather than converted.
const snapshotVersion = 2

type indexDTO struct {
	Name string
	Kind IndexKind
	Cols []string
}

type tableDTO struct {
	Name    string
	Columns []Column
	KeyCols []string
	// NRows packed rows of len(Columns) values each, in slot order, back
	// to back in Rows.
	NRows   int
	Rows    []byte
	Indexes []indexDTO
}

type dbDTO struct {
	Version int
	Tables  []tableDTO
}

// eachPackedRow decodes the n packed rows of arity values that make up
// data and hands each to fn. The row is reused between calls, so fn must
// copy what it keeps. n comes off the wire: it is checked against the
// bytes that many rows need at the least, and nothing is allocated from
// it. Callers wrap the error with the table it concerns.
func eachPackedRow(n, arity int, data []byte, fn func(Row) error) error {
	if n < 0 || arity < 1 || n > len(data)/(arity*minValueSize) {
		return fmt.Errorf("%d packed rows of %d values claimed in %d bytes", n, arity, len(data))
	}
	row := make(Row, 0, arity)
	for i := 0; i < n; i++ {
		var err error
		if row, data, err = DecodeRow(row[:0], data, arity); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		if err := fn(row); err != nil {
			return err
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("%d bytes left over after %d packed rows", len(data), n)
	}
	return nil
}

// WriteSnapshot serializes the database to w. Rows are read straight
// from the slots, not through Scan: a snapshot is bookkeeping, and a
// checkpoint must not charge a table scan to the work-unit counters the
// cost model reads. Tables go in name order and rows in slot order, so
// identical databases produce identical bytes.
func (db *DB) WriteSnapshot(w io.Writer) error {
	dto := dbDTO{Version: snapshotVersion}
	for _, name := range db.TableNames() {
		t := db.tables[name]
		schema := t.Schema()
		td := tableDTO{Name: name, Columns: schema.Columns}
		for _, k := range schema.Key {
			td.KeyCols = append(td.KeyCols, schema.Columns[k].Name)
		}
		size := 0
		for _, r := range t.rows {
			if r != nil {
				size += rowSize(r)
			}
		}
		td.NRows, td.Rows = t.live, make([]byte, 0, size)
		for _, r := range t.rows {
			if r != nil {
				td.Rows = AppendRow(td.Rows, r)
			}
		}
		for _, ix := range t.Indexes() {
			cols := make([]string, len(ix.Cols))
			for i, c := range ix.Cols {
				cols[i] = schema.Columns[c].Name
			}
			td.Indexes = append(td.Indexes, indexDTO{Name: ix.Name, Kind: ix.Kind, Cols: cols})
		}
		dto.Tables = append(dto.Tables, td)
	}
	return gob.NewEncoder(w).Encode(dto)
}

// ReadSnapshot restores a database from a snapshot stream.
func ReadSnapshot(r io.Reader) (*DB, error) {
	var dto dbDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("storage: decoding snapshot: %w", err)
	}
	if dto.Version != snapshotVersion {
		return nil, fmt.Errorf("storage: snapshot version %d, want %d", dto.Version, snapshotVersion)
	}
	db := NewDB()
	for _, td := range dto.Tables {
		schema, err := NewSchema(td.Name, td.Columns, td.KeyCols...)
		if err != nil {
			return nil, fmt.Errorf("storage: snapshot table %s: %w", td.Name, err)
		}
		tbl, err := db.CreateTable(schema)
		if err != nil {
			return nil, err
		}
		if err := eachPackedRow(td.NRows, len(td.Columns), td.Rows, tbl.Insert); err != nil {
			return nil, fmt.Errorf("storage: snapshot rows of %s: %w", td.Name, err)
		}
		for _, ix := range td.Indexes {
			if err := tbl.CreateIndex(ix.Name, ix.Kind, ix.Cols...); err != nil {
				return nil, fmt.Errorf("storage: snapshot index %s: %w", ix.Name, err)
			}
		}
	}
	// Restoring charged insert/index counters; a fresh DB starts clean.
	db.stats = Stats{}
	return db, nil
}

// Snapshot deltas: the differential counterpart of WriteSnapshot /
// ReadSnapshot. A delta captures only the rows behind a caller-provided
// dirty-key set, so a database that changes a handful of rows between
// checkpoints serializes a handful of rows instead of every table. The
// DTOs below are the delta format's compatibility surface, mirroring the
// full-snapshot DTOs.

// snapshotDeltaVersion guards against reading snapshot deltas from
// incompatible layouts; it moved to 2 with the packed row format, in
// step with snapshotVersion.
const snapshotDeltaVersion = 2

// KeySet is one table's dirty keys: encoded primary key -> the key
// values. Over-marking is harmless — a dirty key whose row is unchanged
// round-trips as an identical upsert.
type KeySet map[string][]Value

type tableDeltaDTO struct {
	Name string
	// Upserts carries the full current row of every dirty key present in
	// the table; Deletes carries the key values of dirty keys absent from
	// it. Both are packed rows, counted by NUpserts and NDeletes; a key
	// row has one value per key column.
	NUpserts int
	Upserts  []byte
	NDeletes int
	Deletes  []byte
}

type dbDeltaDTO struct {
	Version int
	Tables  []tableDeltaDTO
}

// WriteSnapshotDelta serializes the state of the dirty keys to w: a
// dirty key present in its table becomes an upsert carrying the full
// current row, an absent one becomes a delete. Applying the delta to any
// database that agrees with this one on every non-dirty key (via
// ApplySnapshotDelta) reproduces this database's logical content.
// Tables and keys are visited in sorted order, so identical (db, dirty)
// pairs produce identical bytes. Index definitions are not part of a
// delta — they belong to the base snapshot.
func (db *DB) WriteSnapshotDelta(w io.Writer, dirty map[string]KeySet) error {
	dto := dbDeltaDTO{Version: snapshotDeltaVersion}
	names := make([]string, 0, len(dirty))
	for name, ks := range dirty {
		if len(ks) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		t, ok := db.tables[name]
		if !ok {
			return fmt.Errorf("storage: snapshot delta for unknown table %q", name)
		}
		ks := dirty[name]
		keys := make([]string, 0, len(ks))
		for k := range ks {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		td := tableDeltaDTO{Name: name}
		for _, k := range keys {
			// Resolve through the primary-key index directly: a checkpoint
			// must not charge probe work to the shared maintenance counters.
			if slot, found := t.pk[k]; found {
				td.NUpserts++
				td.Upserts = AppendRow(td.Upserts, t.rows[slot])
			} else {
				td.NDeletes++
				td.Deletes = AppendRow(td.Deletes, ks[k])
			}
		}
		dto.Tables = append(dto.Tables, td)
	}
	return gob.NewEncoder(w).Encode(dto)
}

// ApplySnapshotDelta applies a delta stream to db in place: upserts
// update the existing row or insert a new one, deletes remove the row
// when present (deleting an already-absent key is a no-op — the writer
// may have over-marked a key that never reached this base). Every table
// named by the delta must exist in db.
func ApplySnapshotDelta(db *DB, r io.Reader) error {
	var dto dbDeltaDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return fmt.Errorf("storage: decoding snapshot delta: %w", err)
	}
	if dto.Version != snapshotDeltaVersion {
		return fmt.Errorf("storage: snapshot delta version %d, want %d", dto.Version, snapshotDeltaVersion)
	}
	for _, td := range dto.Tables {
		tbl, err := db.Table(td.Name)
		if err != nil {
			return fmt.Errorf("storage: snapshot delta: %w", err)
		}
		schema := tbl.Schema()
		err = eachPackedRow(td.NUpserts, len(schema.Columns), td.Upserts, func(row Row) error {
			keyVals := row.Project(schema.Key)
			if _, found := tbl.Get(keyVals...); found {
				_, err := tbl.Update(keyVals, row)
				return err
			}
			return tbl.Insert(row)
		})
		if err != nil {
			return fmt.Errorf("storage: snapshot delta upserts in %s: %w", td.Name, err)
		}
		err = eachPackedRow(td.NDeletes, len(schema.Key), td.Deletes, func(keyVals Row) error {
			if _, found := tbl.Get(keyVals...); found {
				_, err := tbl.Delete(keyVals...)
				return err
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("storage: snapshot delta deletes in %s: %w", td.Name, err)
		}
	}
	return nil
}
