package storage

import (
	"fmt"
	"slices"

	"abivm/internal/btree"
)

// IndexKind selects the physical structure of a secondary index.
type IndexKind uint8

// Index kinds.
const (
	// HashIndex supports equality lookups in O(1).
	HashIndex IndexKind = iota
	// OrderedIndex supports equality and range lookups via a B-tree over
	// the (single) indexed column.
	OrderedIndex
)

// Index is a secondary index over one or more columns of a table. Hash
// indexes map an encoded composite key to the bucket of row slots
// holding it; ordered indexes keep a B-tree from the indexed value to
// its bucket (single-column only).
type Index struct {
	Name string
	Kind IndexKind
	Cols []int // column positions, in index order

	hash map[string]*bucket
	tree *btree.Map[Value, *bucket]
}

// bucket is the row slots under one index key. Both index kinds hold
// buckets by pointer and update them in place, so maintaining an index
// entry under a key that is already there touches no map and builds no
// key string. A hash bucket keeps its slots in insertion order (a
// removal moves the last slot into the gap); an ordered bucket keeps
// them ascending, so a lookup hands the slice out as it stands.
type bucket struct {
	slots []int
}

func newIndex(name string, kind IndexKind, cols []int) (*Index, error) {
	idx := &Index{Name: name, Kind: kind, Cols: cols}
	switch kind {
	case HashIndex:
		idx.hash = make(map[string]*bucket)
	case OrderedIndex:
		if len(cols) != 1 {
			return nil, fmt.Errorf("storage: ordered index %s must cover exactly one column", name)
		}
		idx.tree = btree.New[Value, *bucket](Compare)
	default:
		return nil, fmt.Errorf("storage: unknown index kind %d", kind)
	}
	return idx, nil
}

func (ix *Index) insert(r Row, slot int) {
	switch ix.Kind {
	case HashIndex:
		var a [64]byte
		k := AppendKeyCols(a[:0], r, ix.Cols)
		b := ix.hash[string(k)]
		if b == nil {
			b = &bucket{}
			ix.hash[string(k)] = b
		}
		b.slots = append(b.slots, slot)
	case OrderedIndex:
		v := r[ix.Cols[0]]
		b, ok := ix.tree.Get(v)
		if !ok {
			b = &bucket{}
			ix.tree.Set(v, b)
		}
		i, _ := slices.BinarySearch(b.slots, slot)
		b.slots = slices.Insert(b.slots, i, slot)
	}
}

func (ix *Index) remove(r Row, slot int) {
	switch ix.Kind {
	case HashIndex:
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
	case OrderedIndex:
		v := r[ix.Cols[0]]
		b, ok := ix.tree.Get(v)
		if !ok {
			return
		}
		if i, found := slices.BinarySearch(b.slots, slot); found {
			b.slots = slices.Delete(b.slots, i, i+1)
		}
		if len(b.slots) == 0 {
			ix.tree.Delete(v)
		}
	}
}

// reinsert does what remove(old, slot) followed by insert(cur, slot)
// would when the two rows agree on the indexed columns, without leaving
// the bucket: on a hash index the slot moves to the end of its bucket,
// on an ordered one it stays where it is. It reports false, having done
// nothing, when the rows differ there.
func (ix *Index) reinsert(old, cur Row, slot int) bool {
	for _, c := range ix.Cols {
		if old[c] != cur[c] {
			return false
		}
	}
	if ix.Kind == HashIndex {
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
	}
	return true
}

// Bound is one end of an index range; a nil *Bound means unbounded.
type Bound struct {
	Value     Value
	Exclusive bool
}

// ascendRange visits (value, ascending slots) pairs of an ordered index
// within [lo, hi] (each bound optional, exclusivity per bound) in
// ascending order until fn returns false. It panics on hash indexes.
func (ix *Index) ascendRange(lo, hi *Bound, fn func(v Value, slots []int) bool) {
	if ix.Kind != OrderedIndex {
		panic("storage: range scan on a non-ordered index")
	}
	visit := func(v Value, b *bucket) bool {
		if lo != nil && lo.Exclusive && Compare(v, lo.Value) == 0 {
			return true
		}
		if hi != nil {
			c := Compare(v, hi.Value)
			if c > 0 || (c == 0 && hi.Exclusive) {
				return false
			}
		}
		return fn(v, b.slots)
	}
	if lo == nil {
		ix.tree.Ascend(visit)
		return
	}
	ix.tree.AscendFrom(lo.Value, visit)
}

// lookupEq returns the row slots whose index key equals vals — the
// bucket's own slice, which the caller must not keep or write to — in a
// replay-deterministic order: insertion order on a hash index, slot
// order on an ordered one. The hash key is encoded on the stack and
// never becomes a string.
func (ix *Index) lookupEq(vals []Value) []int {
	var b *bucket
	switch ix.Kind {
	case HashIndex:
		var a [64]byte
		b = ix.hash[string(AppendKey(a[:0], vals...))]
	case OrderedIndex:
		b, _ = ix.tree.Get(vals[0])
	}
	if b == nil {
		return nil
	}
	return b.slots
}
