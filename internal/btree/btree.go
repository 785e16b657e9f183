// Package btree implements an in-memory B-tree ordered map. The IVM
// engine uses it for the auxiliary value multisets that make MIN/MAX
// maintainable under deletes.
//
// The tree is generic over the key type with an explicit comparison
// function, holds one value per key, and supports point operations and
// ordered iteration. It is not safe for concurrent use; the engine
// serializes access (single-writer semantics).
package btree

// degree is the minimum number of children of an internal node (except
// the root). Nodes hold between degree-1 and 2*degree-1 items.
const degree = 16

const maxItems = 2*degree - 1

// Map is a B-tree ordered map from K to V ordered by the provided
// comparison function.
type Map[K, V any] struct {
	cmp  func(a, b K) int
	root *node[K, V]
	size int
}

type item[K, V any] struct {
	key K
	val V
}

type node[K, V any] struct {
	items    []item[K, V]
	children []*node[K, V] // nil for leaves
}

func (n *node[K, V]) leaf() bool { return n.children == nil }

// New returns an empty map ordered by cmp, which must return a negative,
// zero, or positive value for a<b, a==b, a>b respectively.
func New[K, V any](cmp func(a, b K) int) *Map[K, V] {
	if cmp == nil {
		panic("btree: nil comparison function")
	}
	return &Map[K, V]{cmp: cmp}
}

// Len returns the number of keys in the map.
func (m *Map[K, V]) Len() int { return m.size }

// find locates key within a node's items: it returns the index and
// whether the key was found; when not found, the index is the child to
// descend into (or the insertion point in a leaf).
func (m *Map[K, V]) find(n *node[K, V], key K) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.cmp(n.items[mid].key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.items) && m.cmp(n.items[lo].key, key) == 0 {
		return lo, true
	}
	return lo, false
}

// Get returns the value stored under key.
func (m *Map[K, V]) Get(key K) (V, bool) {
	n := m.root
	for n != nil {
		i, ok := m.find(n, key)
		if ok {
			return n.items[i].val, true
		}
		if n.leaf() {
			break
		}
		n = n.children[i]
	}
	var zero V
	return zero, false
}

// Set stores val under key, replacing any existing value. It reports
// whether the key was newly inserted.
func (m *Map[K, V]) Set(key K, val V) bool {
	slot, inserted := m.slot(key)
	*slot = val
	return inserted
}

// Upsert calls fn on the value stored under key, in place and in one
// descent; an absent key is inserted first with the zero value. It
// reports whether the key was newly inserted. fn must not touch the map.
func (m *Map[K, V]) Upsert(key K, fn func(val *V)) bool {
	slot, inserted := m.slot(key)
	fn(slot)
	return inserted
}

// slot returns the address of the value stored under key, inserting the
// key with the zero value when it is absent. The address is good until
// the map is next modified.
func (m *Map[K, V]) slot(key K) (*V, bool) {
	if m.root == nil {
		m.root = &node[K, V]{items: []item[K, V]{{key: key}}}
		m.size = 1
		return &m.root.items[0].val, true
	}
	if len(m.root.items) == maxItems {
		old := m.root
		m.root = &node[K, V]{children: []*node[K, V]{old}}
		m.splitChild(m.root, 0)
	}
	slot, inserted := m.insertNonFull(m.root, key)
	if inserted {
		m.size++
	}
	return slot, inserted
}

// splitChild splits the full child at index i of parent p.
func (m *Map[K, V]) splitChild(p *node[K, V], i int) {
	child := p.children[i]
	mid := len(child.items) / 2
	midItem := child.items[mid]

	right := &node[K, V]{}
	right.items = append(right.items, child.items[mid+1:]...)
	child.items = child.items[:mid]
	if !child.leaf() {
		right.children = append(right.children, child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}

	p.items = append(p.items, item[K, V]{})
	copy(p.items[i+1:], p.items[i:])
	p.items[i] = midItem

	p.children = append(p.children, nil)
	copy(p.children[i+2:], p.children[i+1:])
	p.children[i+1] = right
}

func (m *Map[K, V]) insertNonFull(n *node[K, V], key K) (*V, bool) {
	for {
		i, ok := m.find(n, key)
		if ok {
			return &n.items[i].val, false
		}
		if n.leaf() {
			n.items = append(n.items, item[K, V]{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = item[K, V]{key: key}
			return &n.items[i].val, true
		}
		if len(n.children[i].items) == maxItems {
			m.splitChild(n, i)
			switch c := m.cmp(key, n.items[i].key); {
			case c == 0:
				return &n.items[i].val, false
			case c > 0:
				i++
			}
		}
		n = n.children[i]
	}
}

// Delete removes key from the map and reports whether it was present.
func (m *Map[K, V]) Delete(key K) bool { return m.DeleteIf(key, nil) }

// DeleteIf calls drop on the value stored under key, in place and in one
// descent, and removes the key when drop returns true (a nil drop always
// removes). It reports whether the key was present. drop must not touch
// the map.
func (m *Map[K, V]) DeleteIf(key K, drop func(val *V) bool) bool {
	if m.root == nil {
		return false
	}
	found, removed := m.delete(m.root, key, drop)
	if len(m.root.items) == 0 {
		if m.root.leaf() {
			m.root = nil
		} else {
			m.root = m.root.children[0]
		}
	}
	if removed {
		m.size--
	}
	return found
}

// delete removes key from the subtree rooted at n, which is guaranteed to
// have at least degree items unless it is the root — unless drop, asked
// once where the key is found, keeps it. Topping nodes up on the way down
// is harmless when the key then stays.
func (m *Map[K, V]) delete(n *node[K, V], key K, drop func(*V) bool) (found, removed bool) {
	i, found := m.find(n, key)
	if found && drop != nil && !drop(&n.items[i].val) {
		return true, false
	}
	if n.leaf() {
		if found {
			n.items = append(n.items[:i], n.items[i+1:]...)
		}
		return found, found
	}
	if found {
		// The removal is decided: everything below is unconditional. Replace
		// with the predecessor from the left child (or the successor from the
		// right) when it can spare an item, and delete that recursively.
		if len(n.children[i].items) >= degree {
			pred := m.max(n.children[i])
			n.items[i] = pred
			return m.delete(n.children[i], pred.key, nil)
		}
		if len(n.children[i+1].items) >= degree {
			succ := m.min(n.children[i+1])
			n.items[i] = succ
			return m.delete(n.children[i+1], succ.key, nil)
		}
		m.merge(n, i)
		return m.delete(n.children[i], key, nil)
	}
	// Descend into child i, topping it up to degree items first; a merge
	// may shift the key's position, so the child re-resolves it.
	if len(n.children[i].items) < degree {
		i = m.fill(n, i)
	}
	return m.delete(n.children[i], key, drop)
}

// fill ensures n.children[i] has at least degree items by borrowing from a
// sibling or merging; it returns the index of the child that now covers
// the original key range.
func (m *Map[K, V]) fill(n *node[K, V], i int) int {
	if i > 0 && len(n.children[i-1].items) >= degree {
		m.borrowFromLeft(n, i)
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].items) >= degree {
		m.borrowFromRight(n, i)
		return i
	}
	if i < len(n.children)-1 {
		m.merge(n, i)
		return i
	}
	m.merge(n, i-1)
	return i - 1
}

func (m *Map[K, V]) borrowFromLeft(n *node[K, V], i int) {
	child, left := n.children[i], n.children[i-1]
	child.items = append(child.items, item[K, V]{})
	copy(child.items[1:], child.items)
	child.items[0] = n.items[i-1]
	n.items[i-1] = left.items[len(left.items)-1]
	left.items = left.items[:len(left.items)-1]
	if !child.leaf() {
		child.children = append(child.children, nil)
		copy(child.children[1:], child.children)
		child.children[0] = left.children[len(left.children)-1]
		left.children = left.children[:len(left.children)-1]
	}
}

func (m *Map[K, V]) borrowFromRight(n *node[K, V], i int) {
	child, right := n.children[i], n.children[i+1]
	child.items = append(child.items, n.items[i])
	n.items[i] = right.items[0]
	right.items = append(right.items[:0], right.items[1:]...)
	if !child.leaf() {
		child.children = append(child.children, right.children[0])
		right.children = append(right.children[:0], right.children[1:]...)
	}
}

// merge folds n.children[i+1] and separator i into n.children[i].
func (m *Map[K, V]) merge(n *node[K, V], i int) {
	child, right := n.children[i], n.children[i+1]
	child.items = append(child.items, n.items[i])
	child.items = append(child.items, right.items...)
	if !child.leaf() {
		child.children = append(child.children, right.children...)
	}
	n.items = append(n.items[:i], n.items[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

func (m *Map[K, V]) min(n *node[K, V]) item[K, V] {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.items[0]
}

func (m *Map[K, V]) max(n *node[K, V]) item[K, V] {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

// Min returns the smallest key and its value.
func (m *Map[K, V]) Min() (K, V, bool) {
	if m.root == nil || m.size == 0 {
		var k K
		var v V
		return k, v, false
	}
	it := m.min(m.root)
	return it.key, it.val, true
}

// Max returns the largest key and its value.
func (m *Map[K, V]) Max() (K, V, bool) {
	if m.root == nil || m.size == 0 {
		var k K
		var v V
		return k, v, false
	}
	it := m.max(m.root)
	return it.key, it.val, true
}

// Ascend visits all entries in ascending key order until fn returns false.
func (m *Map[K, V]) Ascend(fn func(key K, val V) bool) {
	m.ascend(m.root, fn)
}

func (m *Map[K, V]) ascend(n *node[K, V], fn func(K, V) bool) bool {
	if n == nil {
		return true
	}
	for i, it := range n.items {
		if !n.leaf() {
			if !m.ascend(n.children[i], fn) {
				return false
			}
		}
		if !fn(it.key, it.val) {
			return false
		}
	}
	if !n.leaf() {
		return m.ascend(n.children[len(n.children)-1], fn)
	}
	return true
}
