package ivm

import (
	"fmt"
	"slices"
	"strings"

	"abivm/internal/exec"
	"abivm/internal/storage"
)

// ViewState is the foldable content of a maintained view: a bag of rows
// with multiplicities for select-project-join views, or per-group
// aggregate states for aggregate views. It is the part of a view that
// consumes signed delta rows and renders results, factored out of the
// Maintainer so the shared delta-dataflow runtime (internal/dataflow)
// folds its operator-graph output through exactly the same state
// machine — one implementation of the aggregate semantics (including
// the MIN/MAX multisets), two runtimes on top.
//
// A state that has been checkpointed (Checkpoint, Restore) also tracks
// which of its entries differ from the checkpoint copy, so the next
// checkpoint costs what changed; one that never was tracks nothing.
type ViewState struct {
	isAgg    bool
	gbCount  int
	aggKinds []exec.AggKind
	aggSet   []int
	itemRefs []itemRef
	groups   map[string]*groupState
	bag      map[string]*bagEntry
	stats    *storage.Stats

	// The entries of the two maps in key order, kept between renders so a
	// render costs what was created or dropped since the previous one.
	// Bringing them up to date is the one write a Result makes.
	groupOrder keyOrder[*groupState]
	bagOrder   keyOrder[*bagEntry]

	// keyBuf is the one buffer every fold and every patch encodes its key
	// into; lookups index the maps with string(keyBuf), which does not
	// allocate, so only a new entry pays for a key string.
	keyBuf []byte

	// cp is the checkpoint copy (nil until the first Checkpoint or
	// Restore). dirtyBag and dirtyGroups list the entries folds have
	// touched since cp was last brought up to date, each once — the
	// entry's dirty flag — vanished ones included.
	cp          *ViewStateSnapshot
	dirtyBag    []*bagEntry
	dirtyGroups []*groupState
}

// NewViewState builds the empty fold state for a planned view. stats
// (may be nil) receives the RowsMaterial/AggUpdates work-unit charges.
func NewViewState(p *DeltaPlan, stats *storage.Stats) *ViewState {
	return &ViewState{
		isAgg:    p.Aggregate,
		gbCount:  p.GroupCols,
		aggKinds: p.aggKinds,
		aggSet:   p.aggSet,
		itemRefs: p.itemRefs,
		groups:   make(map[string]*groupState),
		bag:      make(map[string]*bagEntry),
		stats:    stats,
	}
}

// SetStats redirects the work-unit charges; nil disables them.
func (v *ViewState) SetStats(stats *storage.Stats) { v.stats = stats }

// Add folds delta rows (group cols + agg args for aggregate views,
// plain view rows otherwise) into the state with weight +1 each. The
// state keeps the rows.
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
// and retracting, and is charged as |w| unit folds. The bag entry or
// group is looked up once, through keyBuf; a new bag entry keeps r, or a
// copy of it when r is borrowed.
func (v *ViewState) fold(r storage.Row, w int64, borrowed bool) {
	if v.stats != nil {
		v.stats.RowsMaterial += uint64(max(w, -w))
	}
	if !v.isAgg {
		v.keyBuf = storage.AppendKey(v.keyBuf[:0], r...)
		e := v.bag[string(v.keyBuf)]
		if e == nil {
			if w < 0 {
				panic("ivm: retracting a row absent from the view bag")
			}
			if borrowed {
				r = r.Clone()
			}
			e = &bagEntry{key: string(v.keyBuf), row: r}
			v.bag[e.key] = e
			v.bagOrder.created(e)
		}
		if e.count+w < 0 {
			panic("ivm: retracting a row more often than the view bag holds it")
		}
		e.count += w
		if v.cp != nil && !e.dirty {
			e.dirty = true
			v.dirtyBag = append(v.dirtyBag, e)
		}
		if e.count == 0 {
			delete(v.bag, e.key)
			v.bagOrder.dropped()
		}
		return
	}
	v.keyBuf = storage.AppendKey(v.keyBuf[:0], r[:v.gbCount]...)
	g := v.groups[string(v.keyBuf)]
	if g == nil {
		if w < 0 {
			panic("ivm: retracting from a missing group")
		}
		g = &groupState{key: string(v.keyBuf), keyVals: r[:v.gbCount].Clone(), aggs: newAggStates(v.aggKinds, v.aggSet)}
		v.groups[g.key] = g
		v.groupOrder.created(g)
	}
	if v.cp != nil && !g.dirty {
		g.dirty = true
		v.dirtyGroups = append(v.dirtyGroups, g)
	}
	for ; w > 0; w-- {
		g.count++
		for i := range g.aggs {
			g.aggs[i].add(r[v.gbCount+i], v.stats)
		}
	}
	for ; w < 0; w++ {
		g.count--
		for i := range g.aggs {
			g.aggs[i].remove(r[v.gbCount+i], v.stats)
		}
	}
	if g.count == 0 {
		delete(v.groups, g.key)
		v.groupOrder.dropped()
	} else if g.count < 0 {
		panic("ivm: negative group count")
	}
}

// keyed is a map entry that remembers the key it is held under and knows
// whether the map still holds it.
type keyed interface {
	orderKey() string
	live() bool
}

// keyOrder keeps the entries of one of the state's maps in key order
// between renders: sorted is the order as of the last render, fresh the
// entries created since, dead how many entries of the two lists the map
// has dropped since they were last swept. An entry that vanishes and
// returns is a new entry, so a listed one is never revived.
type keyOrder[E keyed] struct {
	sorted, fresh []E
	dead          int
}

func (o *keyOrder[E]) created(e E) { o.fresh = append(o.fresh, e) }

// dropped notes that the map let go of a listed entry, and sweeps once
// the dead outnumber the living, so a state nobody renders still holds
// lists in proportion to its content.
func (o *keyOrder[E]) dropped() {
	o.dead++
	if 2*o.dead > len(o.sorted)+len(o.fresh)+32 {
		o.sweep()
	}
}

// sweep removes the dropped entries from both lists, keeping their order.
func (o *keyOrder[E]) sweep() {
	dropped := func(e E) bool { return !e.live() }
	o.sorted, o.fresh, o.dead = slices.DeleteFunc(o.sorted, dropped), slices.DeleteFunc(o.fresh, dropped), 0
}

// render returns the live entries in key order. Since the last call only
// the entries created in between need sorting — among themselves — and
// merging in from the back: O(d log d) comparisons for d of them plus the
// moves behind the lowest, and one pass dropping the vanished if there
// are any. Nothing was created or dropped: nothing to do.
func (o *keyOrder[E]) render() []E {
	if o.dead > 0 {
		o.sweep()
	}
	if len(o.fresh) == 0 {
		return o.sorted
	}
	slices.SortFunc(o.fresh, func(a, b E) int { return strings.Compare(a.orderKey(), b.orderKey()) })
	i, j := len(o.sorted)-1, len(o.fresh)-1
	o.sorted = append(o.sorted, o.fresh...)
	for k := len(o.sorted) - 1; j >= 0; k-- {
		if i >= 0 && o.sorted[i].orderKey() > o.fresh[j].orderKey() {
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
// by group key (aggregate views) or encoded row (SPJ views, with
// multiplicities expanded) — the same layout the planner produces for
// the view query, enabling direct comparison. It brings the state's key
// order up to date on the way, so like a fold it needs the state to
// itself: two Results must not run at once.
func (v *ViewState) Result() []storage.Row {
	if v.isAgg {
		groups := v.groupOrder.render()
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
		// Grand aggregate over an empty state: one row of empty aggregate
		// values, mirroring exec.HashAgg.
		if len(out) == 0 && v.gbCount == 0 {
			row := make(storage.Row, len(v.itemRefs))
			for i, ref := range v.itemRefs {
				empty := aggState{kind: v.aggKinds[ref.aggIdx]}
				row[i] = empty.result(0)
			}
			out = append(out, row)
		}
		return out
	}
	entries := v.bagOrder.render()
	var n int64
	for _, e := range entries {
		n += e.count
	}
	out := make([]storage.Row, 0, n)
	for _, e := range entries {
		for i := int64(0); i < e.count; i++ {
			out = append(out, e.row)
		}
	}
	return out
}

// ViewStateSnapshot is the checkpoint copy of a ViewState: the plain data
// of every bag entry or group under the key the live state holds it
// under, aggregate states flattened to (sum, sorted multiset) pairs. A
// dataflow view handle keeps one in memory as its recovery point; it is
// never encoded. ViewState.Checkpoint creates it and afterwards patches
// it — only the entries touched since are rewritten or deleted, never the
// whole copy rebuilt — and ViewState.Restore rebuilds a state from it.
// Rows are immutable by the package's convention, so the copy aliases
// them. The aggregate kinds are not stored: they are re-derived from the
// view's DeltaPlan at restore time.
type ViewStateSnapshot struct {
	Groups map[string]*GroupSnapshot
	Bag    map[string]*BagSnapshot
}

// GroupSnapshot is one group's plain-data state.
type GroupSnapshot struct {
	Key   storage.Row
	Count int64
	Aggs  []AggSnapshot
}

// AggSnapshot is one aggregate's plain-data state: Sum carries
// SUM/AVG accumulators, Multiset the sorted (value, count) pairs of the
// MIN/MAX B-tree the aggregate owns (empty otherwise: the other kinds, and
// a MIN or MAX reading the multiset of an earlier aggregate over the same
// argument, which is stored once, there).
type AggSnapshot struct {
	Sum      float64
	Multiset []ValueCount
}

// ValueCount is one multiset bucket.
type ValueCount struct {
	V storage.Value
	N int64
}

// BagSnapshot is one SPJ bag entry.
type BagSnapshot struct {
	Row   storage.Row
	Count int64
}

// Checkpoint brings the state's checkpoint copy up to date and returns
// it — the same copy every time. The first call copies every entry;
// each later one visits only the entries folds have touched since the
// previous call, so its cost follows the changes, not the view's size.
func (v *ViewState) Checkpoint() *ViewStateSnapshot {
	if v.cp == nil {
		v.cp = &ViewStateSnapshot{
			Groups: make(map[string]*GroupSnapshot, len(v.groups)),
			Bag:    make(map[string]*BagSnapshot, len(v.bag)),
		}
		for k, e := range v.bag {
			v.cp.Bag[k] = &BagSnapshot{Row: e.row, Count: e.count}
		}
		for k, g := range v.groups {
			gs := &GroupSnapshot{}
			g.copyTo(gs)
			v.cp.Groups[k] = gs
		}
		return v.cp
	}
	for _, e := range v.dirtyBag {
		e.dirty = false
		v.patchBag(e.key)
	}
	clear(v.dirtyBag)
	v.dirtyBag = v.dirtyBag[:0]
	for _, g := range v.dirtyGroups {
		g.dirty = false
		v.patchGroup(g.key)
	}
	clear(v.dirtyGroups)
	v.dirtyGroups = v.dirtyGroups[:0]
	return v.cp
}

// patchBag makes the copy agree with the live bag on one key: rewritten
// in place where both hold it, added where only the bag does, deleted
// where the row has vanished. What the bag holds now decides, not the
// touched entry — a row that vanished and came back is a different entry.
func (v *ViewState) patchBag(key string) {
	e := v.bag[key]
	bs := v.cp.Bag[key]
	switch {
	case e == nil:
		delete(v.cp.Bag, key)
	case bs == nil:
		v.cp.Bag[key] = &BagSnapshot{Row: e.row, Count: e.count}
	default:
		bs.Row, bs.Count = e.row, e.count
	}
}

// patchGroup is patchBag for one group key.
func (v *ViewState) patchGroup(key string) {
	g := v.groups[key]
	gs := v.cp.Groups[key]
	switch {
	case g == nil:
		delete(v.cp.Groups, key)
	case gs == nil:
		gs = &GroupSnapshot{}
		g.copyTo(gs)
		v.cp.Groups[key] = gs
	default:
		g.copyTo(gs)
	}
}

// copyTo overwrites gs with the group's plain data, reusing the slices
// gs already holds. A shared multiset is copied once, under the aggregate
// that owns it.
func (g *groupState) copyTo(gs *GroupSnapshot) {
	gs.Key, gs.Count = g.keyVals, g.count
	if gs.Aggs == nil {
		gs.Aggs = make([]AggSnapshot, len(g.aggs))
	}
	for i := range g.aggs {
		as := &gs.Aggs[i]
		as.Sum = g.aggs[i].sum
		as.Multiset = as.Multiset[:0]
		if ms := g.aggs[i].multiset; g.aggs[i].owns {
			if cap(as.Multiset) < ms.Len() {
				as.Multiset = make([]ValueCount, 0, ms.Len())
			}
			ms.Ascend(func(val storage.Value, n int64) bool {
				as.Multiset = append(as.Multiset, ValueCount{V: val, N: n})
				return true
			})
		}
	}
}

// Restore replaces the state with a checkpoint copy's content and adopts
// snap as the copy later checkpoints patch: the two agree entry for
// entry afterwards, so nothing is marked touched. The snapshot must come
// from a view with the same plan shape (aggregate count and kinds); a
// mismatch is an error, not a panic, and leaves the state as it was.
func (v *ViewState) Restore(snap *ViewStateSnapshot) error {
	groups := make(map[string]*groupState, len(snap.Groups))
	bag := make(map[string]*bagEntry, len(snap.Bag))
	// Every entry is new to the render order; the next render sorts them.
	var groupOrder keyOrder[*groupState]
	var bagOrder keyOrder[*bagEntry]
	if v.isAgg {
		if len(snap.Bag) > 0 {
			return fmt.Errorf("ivm: bag entries in an aggregate view snapshot")
		}
		for k, gs := range snap.Groups {
			if len(gs.Aggs) != len(v.aggKinds) {
				//lint:ignore maporder one view's groups share a shape: any of them witnesses the mismatch
				return fmt.Errorf("ivm: snapshot group carries %d aggregates, plan has %d", len(gs.Aggs), len(v.aggKinds))
			}
			if len(gs.Key) != v.gbCount {
				//lint:ignore maporder as above
				return fmt.Errorf("ivm: snapshot group key width %d, plan has %d", len(gs.Key), v.gbCount)
			}
			g := &groupState{key: k, keyVals: gs.Key, count: gs.Count, aggs: newAggStates(v.aggKinds, v.aggSet)}
			for i := range g.aggs {
				g.aggs[i].sum = gs.Aggs[i].Sum
				if g.aggs[i].owns {
					for _, vc := range gs.Aggs[i].Multiset {
						g.aggs[i].multiset.Set(vc.V, vc.N)
					}
				}
			}
			groups[k] = g
			groupOrder.created(g)
		}
	} else {
		if len(snap.Groups) > 0 {
			return fmt.Errorf("ivm: group entries in an SPJ view snapshot")
		}
		for k, bs := range snap.Bag {
			bag[k] = &bagEntry{key: k, row: bs.Row, count: bs.Count}
			bagOrder.created(bag[k])
		}
	}
	v.groups, v.bag, v.cp = groups, bag, snap
	v.groupOrder, v.bagOrder = groupOrder, bagOrder
	v.dirtyBag, v.dirtyGroups = nil, nil
	return nil
}
