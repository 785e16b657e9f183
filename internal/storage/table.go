package storage

import (
	"errors"
	"fmt"
	"sort"
)

// Common table errors.
var (
	ErrDuplicateKey = errors.New("storage: duplicate primary key")
	ErrNotFound     = errors.New("storage: row not found")
)

// Table is a heap of rows with a primary-key hash index and optional
// secondary indexes. Row slots are stable for the lifetime of a row;
// deleted slots are tombstoned and reused by later inserts.
type Table struct {
	schema  *Schema
	stats   *Stats
	rows    []Row // nil entries are tombstones
	free    []int // reusable tombstoned slots
	pk      map[string]int
	indexes map[string]*Index
	live    int
}

// NewTable creates an empty table; stats may be shared across tables.
func NewTable(schema *Schema, stats *Stats) *Table {
	if stats == nil {
		stats = &Stats{}
	}
	return &Table{
		schema:  schema,
		stats:   stats,
		pk:      make(map[string]int),
		indexes: make(map[string]*Index),
	}
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Stats returns the shared work-unit counters.
func (t *Table) Stats() *Stats { return t.stats }

// Len returns the number of live rows.
func (t *Table) Len() int { return t.live }

// CreateIndex adds a secondary index over the named columns and
// backfills it from existing rows.
func (t *Table) CreateIndex(name string, kind IndexKind, cols ...string) error {
	if _, dup := t.indexes[name]; dup {
		return fmt.Errorf("storage: table %s already has index %q", t.schema.Name, name)
	}
	positions := make([]int, len(cols))
	for i, c := range cols {
		p := t.schema.ColIndex(c)
		if p < 0 {
			return fmt.Errorf("storage: table %s has no column %q", t.schema.Name, c)
		}
		positions[i] = p
	}
	idx, err := newIndex(name, kind, positions)
	if err != nil {
		return err
	}
	for slot, r := range t.rows {
		if r != nil {
			idx.insert(r, slot)
			t.stats.IndexWrites++
		}
	}
	t.indexes[name] = idx
	return nil
}

// Indexes lists the table's secondary indexes sorted by name; the IVM
// engine uses it to clone index definitions onto replica tables.
func (t *Table) Indexes() []*Index {
	names := make([]string, 0, len(t.indexes))
	for name := range t.indexes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Index, len(names))
	for i, name := range names {
		out[i] = t.indexes[name]
	}
	return out
}

// IndexOn returns an index covering exactly the given columns (in order),
// or nil. The planner uses it to pick index-nested-loop joins.
func (t *Table) IndexOn(cols ...string) *Index {
	positions := make([]int, len(cols))
	for i, c := range cols {
		p := t.schema.ColIndex(c)
		if p < 0 {
			return nil
		}
		positions[i] = p
	}
	// Deterministic choice: smallest index name wins among matches.
	names := make([]string, 0, len(t.indexes))
	for name := range t.indexes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ix := t.indexes[name]
		if len(ix.Cols) != len(positions) {
			continue
		}
		match := true
		for i := range positions {
			if ix.Cols[i] != positions[i] {
				match = false
				break
			}
		}
		if match {
			return ix
		}
	}
	return nil
}

// Insert adds a row; the primary key must be new.
func (t *Table) Insert(r Row) error {
	if err := t.schema.CheckRow(r); err != nil {
		return err
	}
	var a [64]byte
	key := AppendKeyCols(a[:0], r, t.schema.Key)
	if _, dup := t.pk[string(key)]; dup {
		return fmt.Errorf("%w: table %s key %v", ErrDuplicateKey, t.schema.Name, r.Project(t.schema.Key))
	}
	r = r.Clone()
	var slot int
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
		t.rows[slot] = r
	} else {
		slot = len(t.rows)
		t.rows = append(t.rows, r)
	}
	t.pk[string(key)] = slot // a new key enters the map: its string is made here
	for _, ix := range t.indexes {
		ix.insert(r, slot)
		t.stats.IndexWrites++
	}
	t.live++
	t.stats.RowsInserted++
	return nil
}

// Get returns the row with the given primary-key values.
func (t *Table) Get(keyVals ...Value) (Row, bool) {
	t.stats.IndexProbes++
	var a [64]byte
	slot, ok := t.pk[string(AppendKey(a[:0], keyVals...))]
	if !ok {
		return nil, false
	}
	t.stats.IndexEntries++
	return t.rows[slot], true
}

// Stored returns the row held under an encoded primary key (AppendKey's
// encoding), or nil, charging no work unit: it serves a mirror that
// shares the table's immutable rows, not a query.
func (t *Table) Stored(key []byte) Row {
	slot, ok := t.pk[string(key)]
	if !ok {
		return nil
	}
	return t.rows[slot]
}

// Delete removes the row with the given primary key and returns it.
func (t *Table) Delete(keyVals ...Value) (Row, error) {
	var a [64]byte
	key := AppendKey(a[:0], keyVals...)
	t.stats.IndexProbes++
	slot, ok := t.pk[string(key)]
	if !ok {
		return nil, fmt.Errorf("%w: table %s key %v", ErrNotFound, t.schema.Name, keyVals)
	}
	r := t.rows[slot]
	for _, ix := range t.indexes {
		ix.remove(r, slot)
		t.stats.IndexWrites++
	}
	delete(t.pk, string(key))
	t.rows[slot] = nil
	t.free = append(t.free, slot)
	t.live--
	t.stats.RowsDeleted++
	return r, nil
}

// Update replaces the row identified by its primary-key values with
// newRow (which may change the key) and returns the old row.
func (t *Table) Update(keyVals []Value, newRow Row) (Row, error) {
	if err := t.schema.CheckRow(newRow); err != nil {
		return nil, err
	}
	var a, b [64]byte
	oldKey := AppendKey(a[:0], keyVals...)
	t.stats.IndexProbes++
	slot, ok := t.pk[string(oldKey)]
	if !ok {
		return nil, fmt.Errorf("%w: table %s key %v", ErrNotFound, t.schema.Name, keyVals)
	}
	old := t.rows[slot]
	if !newRow.KeyIs(t.schema.Key, keyVals) {
		newKey := AppendKeyCols(b[:0], newRow, t.schema.Key)
		if _, dup := t.pk[string(newKey)]; dup {
			return nil, fmt.Errorf("%w: table %s key %v", ErrDuplicateKey, t.schema.Name, newRow.Project(t.schema.Key))
		}
		delete(t.pk, string(oldKey))
		t.pk[string(newKey)] = slot
	}
	newRow = newRow.Clone()
	for _, ix := range t.indexes {
		if !ix.reinsert(old, newRow, slot) {
			ix.remove(old, slot)
			ix.insert(newRow, slot)
		}
		t.stats.IndexWrites += 2
	}
	t.rows[slot] = newRow
	t.stats.RowsUpdated++
	return old, nil
}

// Scan visits every live row in slot order until fn returns false. Each
// visited row counts as one scanned work unit.
func (t *Table) Scan(fn func(r Row) bool) {
	for _, r := range t.rows {
		if r == nil {
			continue
		}
		t.stats.RowsScanned++
		if !fn(r) {
			return
		}
	}
}

// LookupIndex returns the rows whose index key equals vals, via the named
// index.
func (t *Table) LookupIndex(name string, vals ...Value) ([]Row, error) {
	ix, ok := t.indexes[name]
	if !ok {
		return nil, fmt.Errorf("storage: table %s has no index %q", t.schema.Name, name)
	}
	return t.lookupVia(nil, ix, vals), nil
}

// lookupVia resolves an equality lookup through an index, accounting
// work, and appends the matching rows to dst. The probe key is encoded
// on the stack and the index's slot bucket is read in place, so with a
// dst of sufficient capacity a lookup allocates nothing.
func (t *Table) lookupVia(dst []Row, ix *Index, vals []Value) []Row {
	t.stats.IndexProbes++
	for _, s := range ix.lookupEq(vals) {
		t.stats.IndexEntries++
		dst = append(dst, t.rows[s])
	}
	return dst
}

// LookupVia is the exported form of lookupVia for planner-chosen
// indexes; a caller that probes in a loop passes its previous result's
// [:0] as dst.
func (t *Table) LookupVia(dst []Row, ix *Index, vals ...Value) []Row {
	return t.lookupVia(dst, ix, vals)
}

// Cursor iterates a table's live rows in slot order, counting scan work.
type Cursor struct {
	t    *Table
	slot int
}

// NewCursor returns a cursor positioned before the first row.
func (t *Table) NewCursor() *Cursor { return &Cursor{t: t} }

// Next returns the next live row, or false when exhausted. Each returned
// row counts as one scanned work unit.
func (c *Cursor) Next() (Row, bool) {
	for c.slot < len(c.t.rows) {
		r := c.t.rows[c.slot]
		c.slot++
		if r != nil {
			c.t.stats.RowsScanned++
			return r, true
		}
	}
	return nil, false
}

// Reset repositions the cursor before the first row.
func (c *Cursor) Reset() { c.slot = 0 }
