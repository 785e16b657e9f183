package ivm

import (
	"slices"

	"abivm/internal/exec"
	"abivm/internal/storage"
)

// ViewState is the foldable content of a maintained view: its entries
// (groupState), one per key. An aggregate view's key is its group-by
// columns and the entry carries one state per aggregate; a
// select-project-join view is GROUP BY on every column with no aggregate
// — the key is the whole row, the entry's contribution count is the
// row's multiplicity, and Result expands it. It is the part of a view that consumes signed delta
// rows and renders results, factored out of the Maintainer so the shared
// delta-dataflow runtime (internal/dataflow) folds its operator-graph
// output through exactly the same state machine — one implementation of
// the aggregate semantics (including the MIN/MAX multisets), two runtimes
// on top.
//
// The entries are held by the 64-bit hash of their key values
// (storage.KeyHash, which tables and indexes file their keys under), the
// entries whose keys share a hash chained through groupState.next and
// told apart by Row.SameKey. So a fold encodes no key and a new entry
// keeps no key string, only its key values; the render orders the
// entries by storage.CompareKeys, which is the order of their encoded
// keys.
type ViewState struct {
	isAgg    bool
	keyCols  int   // leading delta-row columns that are the key: all of them for an SPJ view
	keyOrds  []int // 0..keyCols-1, the key row's columns storage.KeyHash reads
	aggKinds []exec.AggKind
	aggSet   []int
	itemRefs []itemRef
	groups   map[uint64]*groupState // by key hash: the head of the chain of the keys that share it
	stats    *storage.Stats

	// The entries in key order, kept between renders so a render costs what
	// was created or dropped since the previous one. Bringing it up to date
	// is the one write a Result makes.
	order keyOrder
}

// NewViewState builds the empty fold state for a planned view. stats
// (may be nil) receives the RowsMaterial/AggUpdates work-unit charges.
func NewViewState(p *DeltaPlan, stats *storage.Stats) *ViewState {
	keyCols := p.GroupCols
	if !p.Aggregate {
		keyCols = len(p.Delta.Items)
	}
	keyOrds := make([]int, keyCols)
	for i := range keyOrds {
		keyOrds[i] = i
	}
	return &ViewState{
		isAgg:    p.Aggregate,
		keyCols:  keyCols,
		keyOrds:  keyOrds,
		aggKinds: p.aggKinds,
		aggSet:   p.aggSet,
		itemRefs: p.itemRefs,
		groups:   make(map[uint64]*groupState),
		stats:    stats,
	}
}

// SetStats redirects the work-unit charges; nil disables them.
func (v *ViewState) SetStats(stats *storage.Stats) { v.stats = stats }

// Add folds delta rows (key columns, then one argument per aggregate)
// into the state with weight +1 each. The state keeps the rows.
func (v *ViewState) Add(rows []storage.Row) {
	for _, r := range rows {
		v.fold(r, 1, false)
	}
}

// FoldSigned folds one signed delta batch in slice order: rows[:minus]
// with weight -1 each, then rows[minus:] with weight +1. The state keeps
// the rows.
func (v *ViewState) FoldSigned(rows []storage.Row, minus int) {
	for _, r := range rows[:minus] {
		v.fold(r, -1, false)
	}
	for _, r := range rows[minus:] {
		v.fold(r, 1, false)
	}
}

// AddWeighted folds one delta row with a signed multiplicity: w > 0
// adds the row w times, w < 0 retracts it -w times. The dataflow
// runtime's Z-set fold entry point: row is only borrowed — the caller
// may overwrite it afterwards — and is copied if the state keeps it.
func (v *ViewState) AddWeighted(row storage.Row, w int64) {
	if w != 0 {
		v.fold(row, w, true)
	}
}

// AddSummary folds w copies of a pre-aggregated contribution into the
// entry of key: n rows whose arguments sum, per aggregate in select
// order, to sums[i] — nil for a COUNT, which reads no argument. The
// entry's count moves by w·n and each sum merges w·sums[i] exactly, so
// the state is what folding the n rows one at a time w times would leave.
// Every aggregate must be a COUNT, SUM or AVG. key is borrowed like
// AddWeighted's row. It is charged as one unit fold, however many rows it
// stands for.
func (v *ViewState) AddSummary(key storage.Row, w, n int64, sums []*exec.ExactSum) {
	if w == 0 || n == 0 {
		return
	}
	g := v.entry(key, w, true)
	if v.stats != nil {
		v.stats.RowsMaterial++
		v.stats.AggUpdates += uint64(len(g.aggs))
	}
	if g.count+w*n < 0 {
		panic("ivm: retracting more than the view's entry holds")
	}
	g.count += w * n
	for i := range g.aggs {
		switch a := &g.aggs[i]; a.kind {
		case exec.AggCount:
		case exec.AggSum, exec.AggAvg:
			a.sum.Merge(sums[i], w)
		default:
			panic("ivm: a summary folded into a " + a.kind.String())
		}
	}
	v.settle(g)
}

// entry returns the entry of a key row about to move by w, making it
// when it is new; it panics if w retracts from an entry the view does not
// hold. The entry is looked up once, by the key's hash, and found on its
// chain by its key values. A new entry heads the chain and keeps its key
// values: key itself when the state may keep it, a copy otherwise
// (newEntry). An entry is never reused, so a rendered row aliasing
// its key values stays as rendered.
func (v *ViewState) entry(key storage.Row, w int64, copyKey bool) *groupState {
	h := storage.KeyHash(key, v.keyOrds)
	head := v.groups[h]
	for g := head; g != nil; g = g.next {
		if g.keyVals.SameKey(key) {
			return g
		}
	}
	if w < 0 {
		panic("ivm: retracting from an entry the view does not hold")
	}
	g := newEntry(key, copyKey)
	g.hash, g.next, g.aggs = h, head, newAggStates(v.aggKinds, v.aggSet)
	v.groups[h] = g
	v.order.created(g)
	return g
}

// settle drops an entry whose count a fold brought to zero, unlinking it
// from its chain.
func (v *ViewState) settle(g *groupState) {
	if g.count != 0 {
		return
	}
	switch head := v.groups[g.hash]; {
	case head != g:
		for head.next != g {
			head = head.next
		}
		head.next = g.next
	case g.next != nil:
		v.groups[g.hash] = g.next
	default:
		delete(v.groups, g.hash)
	}
	g.next = nil
	v.order.dropped()
}

// fold applies one delta row |w| times, w's sign choosing between adding
// and retracting, and is charged as |w| unit folds. A new entry keeps r
// itself as its key values when r is all key and the state's to keep.
func (v *ViewState) fold(r storage.Row, w int64, borrowed bool) {
	if v.stats != nil {
		v.stats.RowsMaterial += uint64(max(w, -w))
	}
	g := v.entry(r[:v.keyCols], w, borrowed || v.keyCols < len(r))
	if g.count+w < 0 {
		panic("ivm: retracting more than the view's entry holds")
	}
	g.count += w
	for i := range g.aggs {
		arg := r[v.keyCols+i]
		for n := w; n > 0; n-- {
			g.aggs[i].add(arg, v.stats)
		}
		for n := w; n < 0; n++ {
			g.aggs[i].remove(arg, v.stats)
		}
	}
	v.settle(g)
}

// keyOrder keeps the state's entries in key order between renders: sorted
// is the order as of the last render, fresh the entries created since,
// dead how many entries of the two lists the map has dropped since they
// were last swept. An entry that vanishes and returns is a new entry, so
// a listed one is never revived.
type keyOrder struct {
	sorted, fresh []*groupState
	dead          int
}

func (o *keyOrder) created(g *groupState) { o.fresh = append(o.fresh, g) }

// dropped notes that the map let go of a listed entry, and sweeps once
// the dead outnumber the living, so a state nobody renders still holds
// lists in proportion to its content.
func (o *keyOrder) dropped() {
	o.dead++
	if 2*o.dead > len(o.sorted)+len(o.fresh)+32 {
		o.sweep()
	}
}

// sweep removes the dropped entries from both lists, keeping their order.
func (o *keyOrder) sweep() {
	dropped := func(g *groupState) bool { return g.count == 0 }
	o.sorted, o.fresh, o.dead = slices.DeleteFunc(o.sorted, dropped), slices.DeleteFunc(o.fresh, dropped), 0
}

// render returns the live entries in key order. Since the last call only
// the entries created in between need sorting — among themselves — and
// merging in from the back, each finding its place among the listed
// entries by binary search and moving the block behind it at once:
// O(d log n) comparisons for d of them among n, plus the moves behind the
// lowest, and one pass dropping the vanished if there are any. Nothing
// was created or dropped: nothing to do.
func (o *keyOrder) render() []*groupState {
	if o.dead > 0 {
		o.sweep()
	}
	if len(o.fresh) == 0 {
		return o.sorted
	}
	byKey := func(a, b *groupState) int { return storage.CompareKeys(a.keyVals, b.keyVals) }
	slices.SortFunc(o.fresh, byKey)
	i := len(o.sorted) // o.sorted[:i] are the listed entries not yet moved
	o.sorted = append(o.sorted, o.fresh...)
	k := len(o.sorted) // o.sorted[k:] is merged
	for j := len(o.fresh) - 1; j >= 0; j-- {
		// A live key is held once, so no listed entry equals a fresh one.
		at, _ := slices.BinarySearchFunc(o.sorted[:i], o.fresh[j], byKey)
		k -= i - at
		copy(o.sorted[k:], o.sorted[at:i])
		k, i = k-1, at
		o.sorted[k] = o.fresh[j]
	}
	clear(o.fresh)
	o.fresh = o.fresh[:0]
	return o.sorted
}

// Result renders the current content in SELECT-item order, rows sorted
// by key — the group-by values, or for an SPJ view the row, in the order
// of their key encodings (storage.CompareKeys), each entry expanded by
// its count: COUNT(*) rendered as multiplicity — the
// same layout the planner produces for the view query, enabling direct
// comparison. It brings the state's key order up to date on the way, so
// like a fold it needs the state to itself: two Results must not run at
// once. The rows are shared with the state and read-only: an SPJ view's
// are its entries' key values, an aggregate view's cut from one array.
func (v *ViewState) Result() []storage.Row {
	groups := v.order.render()
	if !v.isAgg {
		var n int64
		for _, g := range groups {
			n += g.count
		}
		out := make([]storage.Row, 0, n)
		for _, g := range groups {
			for i := int64(0); i < g.count; i++ {
				out = append(out, g.keyVals)
			}
		}
		return out
	}
	if len(groups) == 0 && v.keyCols == 0 {
		// Grand aggregate over an empty state: the one row an entry nothing
		// has contributed to renders, mirroring exec.HashAgg.
		groups = []*groupState{{aggs: newAggStates(v.aggKinds, v.aggSet)}}
	}
	width := len(v.itemRefs)
	vals := make([]storage.Value, len(groups)*width)
	out := make([]storage.Row, 0, len(groups))
	for _, g := range groups {
		row := storage.Row(vals[:width:width])
		vals = vals[width:]
		for i, ref := range v.itemRefs {
			if ref.aggIdx >= 0 {
				row[i] = g.aggs[ref.aggIdx].result(g.count)
			} else {
				row[i] = g.keyVals[ref.groupIdx]
			}
		}
		out = append(out, row)
	}
	return out
}
