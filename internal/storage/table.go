package storage

import (
	"errors"
	"fmt"
	"slices"
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
//
// The primary-key index files each live slot under the hash of its key
// columns (KeyHash): pk holds the first slot with a hash, next chains
// the slots whose keys share it, and a slot on the chain matches when
// its key columns are the probe's, column by column (Row.SameKey's
// rule). So a probe or an insert hashes the key values and encodes
// nothing.
type Table struct {
	schema    *Schema
	stats     *Stats
	rows      []Row            // nil entries are tombstones
	free      []int            // reusable tombstoned slots
	pk        map[uint64]int32 // key hash -> the first slot on its chain
	next      []int32          // per slot: the next slot on its chain, or -1
	keyOrds   []int            // 0..len(key)-1: where a key-value list holds its columns
	indexes   map[string]*Index
	hashCols  []hashColumn // built by ScanKeyHashes, one per column list it was asked for
	live      int
	displaced Row // the row the last Delete or Update removed
}

// hashColumn is the KeyHash of every slot's row at cols, in slot order:
// what a scan that only wants key hashes reads instead of the rows. A
// dead slot's entry is stale and never read.
type hashColumn struct {
	cols   []int
	hashes []uint64 // len(Table.rows)
}

// set files the hash of r, the row now in slot, growing the column by
// one when slot is new.
func (c *hashColumn) set(slot int, r Row) {
	h := KeyHash(r, c.cols)
	if slot == len(c.hashes) {
		c.hashes = append(c.hashes, h)
		return
	}
	c.hashes[slot] = h
}

// KeyHash is the hash every table, index, kept hash column and
// exec.HashJoin files a key under: HashCols. It is one variable so a
// test can map every key to one hash, for storage and exec alike, and
// exercise the collision chains; nothing else sets it.
var KeyHash = HashCols

// ordinals returns 0..n-1, the columns of a key-value list.
func ordinals(n int) []int {
	ords := make([]int, n)
	for i := range ords {
		ords[i] = i
	}
	return ords
}

// NewTable creates an empty table; stats may be shared across tables.
func NewTable(schema *Schema, stats *Stats) *Table {
	if stats == nil {
		stats = &Stats{}
	}
	return &Table{
		schema:  schema,
		stats:   stats,
		pk:      make(map[uint64]int32),
		keyOrds: ordinals(len(schema.Key)),
		indexes: make(map[string]*Index),
	}
}

// find returns the hash of the primary key that r holds at cols and the
// slot holding that key, or -1.
func (t *Table) find(r Row, cols []int) (uint64, int) {
	h := KeyHash(r, cols)
	s, ok := t.pk[h]
	if !ok {
		return h, -1
	}
	for ; s >= 0; s = t.next[s] {
		if SameCols(t.rows[s], t.schema.Key, r, cols) {
			return h, int(s)
		}
	}
	return h, -1
}

// findKey is find for a list of primary-key values; a list of another
// length finds nothing.
func (t *Table) findKey(vals []Value) (uint64, int) {
	if len(vals) != len(t.keyOrds) {
		return 0, -1
	}
	return t.find(vals, t.keyOrds)
}

// link files slot at the head of hash h's chain.
func (t *Table) link(h uint64, slot int) {
	head, ok := t.pk[h]
	if !ok {
		head = -1
	}
	t.next[slot] = head
	t.pk[h] = int32(slot)
}

// unlink takes slot off hash h's chain.
func (t *Table) unlink(h uint64, slot int) {
	s := t.pk[h]
	if int(s) == slot {
		if n := t.next[slot]; n >= 0 {
			t.pk[h] = n
		} else {
			delete(t.pk, h)
		}
		return
	}
	for int(t.next[s]) != slot {
		s = t.next[s]
	}
	t.next[s] = t.next[slot]
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
	h, dup := t.find(r, t.schema.Key)
	if dup >= 0 {
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
		t.next = append(t.next, -1)
	}
	t.link(h, slot)
	for _, ix := range t.indexes {
		ix.insert(r, slot)
		t.stats.IndexWrites++
	}
	for i := range t.hashCols {
		t.hashCols[i].set(slot, r)
	}
	t.live++
	t.stats.RowsInserted++
	return nil
}

// Get returns the row with the given primary-key values.
func (t *Table) Get(keyVals ...Value) (Row, bool) {
	t.stats.IndexProbes++
	_, slot := t.findKey(keyVals)
	if slot < 0 {
		return nil, false
	}
	t.stats.IndexEntries++
	return t.rows[slot], true
}

// Stored returns the row with the given primary-key values, or nil,
// charging no work unit: it serves a reader that shares the table's
// immutable rows, not a query.
func (t *Table) Stored(keyVals ...Value) Row {
	_, slot := t.findKey(keyVals)
	if slot < 0 {
		return nil
	}
	return t.rows[slot]
}

// EachStored visits the live rows in slot order, charging no work unit,
// like Stored. Slot order is deterministic but not key order: a deleted
// row's slot goes to a later insert.
func (t *Table) EachStored(fn func(r Row)) {
	for _, r := range t.rows {
		if r != nil {
			fn(r)
		}
	}
}

// Displaced returns the row the last Delete or Update removed if its
// primary-key values are keyVals, else nil, charging no work unit: a
// reader that follows each live write finds a delete's or an update's
// old row here. It is not table content: snapshots and clones do not
// carry it.
func (t *Table) Displaced(keyVals ...Value) Row {
	if t.displaced == nil || !t.displaced.KeyIs(t.schema.Key, keyVals) {
		return nil
	}
	return t.displaced
}

// Delete removes the row with the given primary key and returns it.
func (t *Table) Delete(keyVals ...Value) (Row, error) {
	t.stats.IndexProbes++
	h, slot := t.findKey(keyVals)
	if slot < 0 {
		return nil, fmt.Errorf("%w: table %s key %v", ErrNotFound, t.schema.Name, keyVals)
	}
	r := t.rows[slot]
	for _, ix := range t.indexes {
		ix.remove(r, slot)
		t.stats.IndexWrites++
	}
	t.unlink(h, slot)
	t.rows[slot] = nil
	t.free = append(t.free, slot)
	t.live--
	t.displaced = r
	t.stats.RowsDeleted++
	return r, nil
}

// Update replaces the row identified by its primary-key values with
// newRow (which may change the key) and returns the old row.
func (t *Table) Update(keyVals []Value, newRow Row) (Row, error) {
	if err := t.schema.CheckRow(newRow); err != nil {
		return nil, err
	}
	t.stats.IndexProbes++
	oldHash, slot := t.findKey(keyVals)
	if slot < 0 {
		return nil, fmt.Errorf("%w: table %s key %v", ErrNotFound, t.schema.Name, keyVals)
	}
	old := t.rows[slot]
	if !newRow.KeyIs(t.schema.Key, keyVals) {
		newHash, dup := t.find(newRow, t.schema.Key)
		if dup >= 0 {
			return nil, fmt.Errorf("%w: table %s key %v", ErrDuplicateKey, t.schema.Name, newRow.Project(t.schema.Key))
		}
		t.unlink(oldHash, slot)
		t.link(newHash, slot)
	}
	newRow = newRow.Clone()
	for _, ix := range t.indexes {
		if !ix.reinsert(old, newRow, slot) {
			ix.remove(old, slot)
			ix.insert(newRow, slot)
		}
		t.stats.IndexWrites += 2
	}
	for i := range t.hashCols {
		t.hashCols[i].set(slot, newRow)
	}
	t.rows[slot] = newRow
	t.displaced = old
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

// ScanKeyHashes visits every live slot in slot order with the KeyHash
// of its row's columns at cols, charging one scanned work unit per slot
// as Scan does, and reads no row: the hashes come from a column the
// table keeps for cols. The first scan of a column list builds it as it
// goes, charging nothing more; Insert and Update keep it current;
// CloneTable and snapshots do not carry it, so a table never scanned
// this way holds none. fn reads a row it wants through Slot and must not
// write to the table.
func (t *Table) ScanKeyHashes(cols []int, fn func(slot int, h uint64)) {
	hashes, kept := t.keptHashes(cols)
	n := 0
	for slot, r := range t.rows {
		if r == nil {
			continue
		}
		if !kept {
			hashes[slot] = KeyHash(r, cols)
		}
		n++
		fn(slot, hashes[slot])
	}
	if !kept {
		t.hashCols = append(t.hashCols, hashColumn{cols: slices.Clone(cols), hashes: hashes})
	}
	t.stats.RowsScanned += uint64(n)
}

// keptHashes returns the hash column kept for cols and true, or an
// empty one, a slot each, and false.
func (t *Table) keptHashes(cols []int) ([]uint64, bool) {
	for _, c := range t.hashCols {
		if slices.Equal(c.cols, cols) {
			return c.hashes, true
		}
	}
	return make([]uint64, len(t.rows)), false
}

// Slot returns the row in slot, nil when the slot is dead, charging no
// work unit: ScanKeyHashes has charged the scan.
func (t *Table) Slot(slot int) Row { return t.rows[slot] }

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
// work, and appends the matching rows to dst. The probe key is hashed,
// not encoded, and the index's slot bucket is read in place, so with a
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
