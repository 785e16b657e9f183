package storage

import (
	"fmt"
	"slices"
)

// IndexKind selects the physical structure of a secondary index.
type IndexKind uint8

// Index kinds.
const (
	// HashIndex supports equality lookups in O(1).
	HashIndex IndexKind = iota
)

// Index is a secondary index over one or more columns of a table. It
// files each bucket of row slots under the hash of its key columns
// (KeyHash, as the primary key does); the buckets whose keys share a
// hash are chained, and a bucket is told apart by the key columns of the
// row that opened it.
type Index struct {
	Name string
	Kind IndexKind
	Cols []int // column positions, in index order

	hash map[uint64]*bucket // key hash -> the first bucket on its chain
	ords []int              // 0..len(Cols)-1: where a probe's values hold the columns
}

// bucket is the row slots under one index key, held by pointer and
// updated in place, so maintaining an index entry under a key that is
// already there touches no map. A bucket keeps its slots in insertion
// order (a removal moves the last slot into the gap) and is dropped
// when its last slot goes. It keeps the row that opened it, deleted or
// not, as its key: a probe confirms a bucket with one read, not through
// a slot and the table's row array.
type bucket struct {
	owner Row // the row that opened the bucket; rows are never written
	slots []int
	next  *bucket // the next bucket whose key has the same hash
}

func newIndex(name string, kind IndexKind, cols []int) (*Index, error) {
	if kind != HashIndex {
		return nil, fmt.Errorf("storage: unknown index kind %d", kind)
	}
	return &Index{Name: name, Kind: kind, Cols: cols, hash: make(map[uint64]*bucket), ords: ordinals(len(cols))}, nil
}

// find returns the hash of the index key that r holds at cols and its
// bucket, or nil.
func (ix *Index) find(r Row, cols []int) (uint64, *bucket) {
	h := KeyHash(r, cols)
	b := ix.hash[h]
	for b != nil && !SameCols(b.owner, ix.Cols, r, cols) {
		b = b.next
	}
	return h, b
}

func (ix *Index) insert(r Row, slot int) {
	h, b := ix.find(r, ix.Cols)
	if b == nil {
		b = &bucket{owner: r, next: ix.hash[h]}
		ix.hash[h] = b
	}
	b.slots = append(b.slots, slot)
}

func (ix *Index) remove(r Row, slot int) {
	h, b := ix.find(r, ix.Cols)
	if b == nil {
		return
	}
	if i := slices.Index(b.slots, slot); i >= 0 {
		last := len(b.slots) - 1
		b.slots[i] = b.slots[last]
		b.slots = b.slots[:last]
	}
	if len(b.slots) > 0 {
		return
	}
	switch head := ix.hash[h]; {
	case head != b:
		for head.next != b {
			head = head.next
		}
		head.next = b.next
	case b.next != nil:
		ix.hash[h] = b.next
	default:
		delete(ix.hash, h)
	}
}

// reinsert does what remove(old, slot) followed by insert(cur, slot)
// would when the two rows agree on the indexed columns, without leaving
// the bucket: the slot moves to the end of its bucket. It reports false,
// having done nothing, when the rows differ there.
func (ix *Index) reinsert(old, cur Row, slot int) bool {
	if !SameCols(old, ix.Cols, cur, ix.Cols) {
		return false
	}
	_, b := ix.find(old, ix.Cols)
	if b == nil {
		return false
	}
	i := slices.Index(b.slots, slot)
	if i < 0 {
		return false
	}
	last := len(b.slots) - 1
	b.slots[i], b.slots[last] = b.slots[last], slot
	return true
}

// lookupEq returns the row slots whose index key equals vals — the
// bucket's own slice, which the caller must not keep or write to — in
// insertion order, so it is replay-deterministic. The probe hashes vals
// and encodes nothing.
func (ix *Index) lookupEq(vals []Value) []int {
	if len(vals) != len(ix.ords) {
		return nil
	}
	if _, b := ix.find(vals, ix.ords); b != nil {
		return b.slots
	}
	return nil
}
