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
// maps an encoded composite key to the bucket of row slots holding it.
type Index struct {
	Name string
	Kind IndexKind
	Cols []int // column positions, in index order

	hash map[string]*bucket
}

// bucket is the row slots under one index key, held by pointer and
// updated in place, so maintaining an index entry under a key that is
// already there touches no map and builds no key string. A bucket keeps
// its slots in insertion order (a removal moves the last slot into the
// gap).
type bucket struct {
	slots []int
}

func newIndex(name string, kind IndexKind, cols []int) (*Index, error) {
	if kind != HashIndex {
		return nil, fmt.Errorf("storage: unknown index kind %d", kind)
	}
	return &Index{Name: name, Kind: kind, Cols: cols, hash: make(map[string]*bucket)}, nil
}

func (ix *Index) insert(r Row, slot int) {
	var a [64]byte
	k := AppendKeyCols(a[:0], r, ix.Cols)
	b := ix.hash[string(k)]
	if b == nil {
		b = &bucket{}
		ix.hash[string(k)] = b
	}
	b.slots = append(b.slots, slot)
}

func (ix *Index) remove(r Row, slot int) {
	var a [64]byte
	k := AppendKeyCols(a[:0], r, ix.Cols)
	b := ix.hash[string(k)]
	if b == nil {
		return
	}
	if i := slices.Index(b.slots, slot); i >= 0 {
		last := len(b.slots) - 1
		b.slots[i] = b.slots[last]
		b.slots = b.slots[:last]
	}
	if len(b.slots) == 0 {
		delete(ix.hash, string(k))
	}
}

// reinsert does what remove(old, slot) followed by insert(cur, slot)
// would when the two rows agree on the indexed columns, without leaving
// the bucket: the slot moves to the end of its bucket. It reports false,
// having done nothing, when the rows differ there.
func (ix *Index) reinsert(old, cur Row, slot int) bool {
	for _, c := range ix.Cols {
		if old[c] != cur[c] {
			return false
		}
	}
	var a [64]byte
	b := ix.hash[string(AppendKeyCols(a[:0], old, ix.Cols))]
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
// insertion order, so it is replay-deterministic. The key is encoded on
// the stack and never becomes a string.
func (ix *Index) lookupEq(vals []Value) []int {
	var a [64]byte
	b := ix.hash[string(AppendKey(a[:0], vals...))]
	if b == nil {
		return nil
	}
	return b.slots
}
