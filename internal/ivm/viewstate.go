package ivm

import (
	"slices"
	"strings"

	"abivm/internal/exec"
	"abivm/internal/storage"
)

// ViewState is the foldable content of a maintained view: one map from
// key to groupState. An aggregate view's key is its group-by columns and
// the entry carries one state per aggregate; a select-project-join view
// is GROUP BY on every column with no aggregate — the key is the whole
// row, the entry's contribution count is the row's multiplicity, and
// Result expands it. It is the part of a view that consumes signed delta
// rows and renders results, factored out of the Maintainer so the shared
// delta-dataflow runtime (internal/dataflow) folds its operator-graph
// output through exactly the same state machine — one implementation of
// the aggregate semantics (including the MIN/MAX multisets), two runtimes
// on top.
type ViewState struct {
	isAgg    bool
	keyCols  int // leading delta-row columns that are the key: all of them for an SPJ view
	aggKinds []exec.AggKind
	aggSet   []int
	itemRefs []itemRef
	groups   map[string]*groupState
	stats    *storage.Stats

	// The entries in key order, kept between renders so a render costs what
	// was created or dropped since the previous one. Bringing it up to date
	// is the one write a Result makes.
	order keyOrder

	// keyBuf is the one buffer every fold encodes its key into; lookups
	// index the map with string(keyBuf), which does not allocate, so only a
	// new entry pays for a key string.
	keyBuf []byte
}

// NewViewState builds the empty fold state for a planned view. stats
// (may be nil) receives the RowsMaterial/AggUpdates work-unit charges.
func NewViewState(p *DeltaPlan, stats *storage.Stats) *ViewState {
	keyCols := p.GroupCols
	if !p.Aggregate {
		keyCols = len(p.Delta.Items)
	}
	return &ViewState{
		isAgg:    p.Aggregate,
		keyCols:  keyCols,
		aggKinds: p.aggKinds,
		aggSet:   p.aggSet,
		itemRefs: p.itemRefs,
		groups:   make(map[string]*groupState),
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
// with weight -w each, then rows[minus:] with weight +w. w is 1 to apply
// the batch and -1 to take it back. The state keeps the rows.
func (v *ViewState) FoldSigned(rows []storage.Row, minus int, w int64) {
	for _, r := range rows[:minus] {
		v.fold(r, -w, false)
	}
	for _, r := range rows[minus:] {
		v.fold(r, w, false)
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

// fold applies one delta row |w| times, w's sign choosing between adding
// and retracting, and is charged as |w| unit folds. The entry is looked up
// once, through keyBuf. A new entry keeps its key values: r itself when r
// is all key and the state's to keep, a copy otherwise.
func (v *ViewState) fold(r storage.Row, w int64, borrowed bool) {
	if v.stats != nil {
		v.stats.RowsMaterial += uint64(max(w, -w))
	}
	key := r[:v.keyCols]
	v.keyBuf = storage.AppendKey(v.keyBuf[:0], key...)
	g := v.groups[string(v.keyBuf)]
	if g == nil {
		if w < 0 {
			panic("ivm: retracting from an entry the view does not hold")
		}
		if borrowed || len(key) < len(r) {
			key = key.Clone()
		}
		g = &groupState{key: string(v.keyBuf), keyVals: key, aggs: newAggStates(v.aggKinds, v.aggSet)}
		v.groups[g.key] = g
		v.order.created(g)
	}
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
	if g.count == 0 {
		delete(v.groups, g.key)
		v.order.dropped()
	}
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
// merging in from the back: O(d log d) comparisons for d of them plus the
// moves behind the lowest, and one pass dropping the vanished if there
// are any. Nothing was created or dropped: nothing to do.
func (o *keyOrder) render() []*groupState {
	if o.dead > 0 {
		o.sweep()
	}
	if len(o.fresh) == 0 {
		return o.sorted
	}
	slices.SortFunc(o.fresh, func(a, b *groupState) int { return strings.Compare(a.key, b.key) })
	i, j := len(o.sorted)-1, len(o.fresh)-1
	o.sorted = append(o.sorted, o.fresh...)
	for k := len(o.sorted) - 1; j >= 0; k-- {
		if i >= 0 && o.sorted[i].key > o.fresh[j].key {
			o.sorted[k] = o.sorted[i]
			i--
		} else {
			o.sorted[k] = o.fresh[j]
			j--
		}
	}
	clear(o.fresh)
	o.fresh = o.fresh[:0]
	return o.sorted
}

// Result renders the current content in SELECT-item order, rows sorted
// by key — the group-by values, or for an SPJ view the encoded row, each
// entry expanded by its count: COUNT(*) rendered as multiplicity — the
// same layout the planner produces for the view query, enabling direct
// comparison. It brings the state's key order up to date on the way, so
// like a fold it needs the state to itself: two Results must not run at
// once.
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
	out := make([]storage.Row, 0, len(groups))
	for _, g := range groups {
		row := make(storage.Row, len(v.itemRefs))
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
