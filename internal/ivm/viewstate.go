package ivm

import (
	"fmt"
	"sort"

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
type ViewState struct {
	isAgg    bool
	gbCount  int
	aggKinds []exec.AggKind
	itemRefs []itemRef
	groups   map[string]*groupState
	bag      map[string]*bagEntry
	stats    *storage.Stats
}

// NewViewState builds the empty fold state for a planned view. stats
// (may be nil) receives the RowsMaterial/AggUpdates work-unit charges.
func NewViewState(p *DeltaPlan, stats *storage.Stats) *ViewState {
	return &ViewState{
		isAgg:    p.Aggregate,
		gbCount:  p.GroupCols,
		aggKinds: p.aggKinds,
		itemRefs: p.itemRefs,
		groups:   make(map[string]*groupState),
		bag:      make(map[string]*bagEntry),
		stats:    stats,
	}
}

// SetStats redirects the work-unit charges; nil disables them.
func (v *ViewState) SetStats(stats *storage.Stats) { v.stats = stats }

// Add folds delta rows (group cols + agg args for aggregate views,
// plain view rows otherwise) into the state with weight +1 each.
func (v *ViewState) Add(rows []storage.Row) {
	for _, r := range rows {
		v.fold(r, 1)
	}
}

// Remove retracts delta rows from the state (weight -1 each).
func (v *ViewState) Remove(rows []storage.Row) {
	for _, r := range rows {
		v.fold(r, -1)
	}
}

// AddWeighted folds one delta row with a signed multiplicity: w > 0
// adds the row w times, w < 0 retracts it -w times. The dataflow
// runtime's Z-set fold entry point.
func (v *ViewState) AddWeighted(row storage.Row, w int64) {
	for ; w > 0; w-- {
		v.fold(row, 1)
	}
	for ; w < 0; w++ {
		v.fold(row, -1)
	}
}

// fold applies one unit-weight delta row.
func (v *ViewState) fold(r storage.Row, sign int64) {
	if v.stats != nil {
		v.stats.RowsMaterial++
	}
	if !v.isAgg {
		key := storage.EncodeKey(r...)
		e, ok := v.bag[key]
		if sign > 0 {
			if !ok {
				e = &bagEntry{row: r}
				v.bag[key] = e
			}
			e.count++
			return
		}
		if !ok || e.count <= 0 {
			panic("ivm: retracting a row absent from the view bag")
		}
		e.count--
		if e.count == 0 {
			delete(v.bag, key)
		}
		return
	}
	key := storage.EncodeKey(r[:v.gbCount]...)
	g, ok := v.groups[key]
	if sign > 0 {
		if !ok {
			g = &groupState{keyVals: r[:v.gbCount].Clone(), aggs: make([]aggState, len(v.aggKinds))}
			for i, kind := range v.aggKinds {
				g.aggs[i] = newAggState(kind)
			}
			v.groups[key] = g
		}
		g.count++
		for i := range g.aggs {
			g.aggs[i].add(r[v.gbCount+i], v.stats)
		}
		return
	}
	if !ok {
		panic("ivm: retracting from a missing group")
	}
	g.count--
	for i := range g.aggs {
		g.aggs[i].remove(r[v.gbCount+i], v.stats)
	}
	if g.count == 0 {
		delete(v.groups, key)
	} else if g.count < 0 {
		panic("ivm: negative group count")
	}
}

// Result renders the current content in SELECT-item order, rows sorted
// by group key (aggregate views) or encoded row (SPJ views, with
// multiplicities expanded) — the same layout the planner produces for
// the view query, enabling direct comparison.
func (v *ViewState) Result() []storage.Row {
	if v.isAgg {
		keys := make([]string, 0, len(v.groups))
		for k := range v.groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make([]storage.Row, 0, len(keys))
		for _, k := range keys {
			g := v.groups[k]
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
				empty := newAggState(v.aggKinds[ref.aggIdx])
				row[i] = empty.result(0)
			}
			out = append(out, row)
		}
		return out
	}
	keys := make([]string, 0, len(v.bag))
	for k := range v.bag {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []storage.Row
	for _, k := range keys {
		e := v.bag[k]
		for i := int64(0); i < e.count; i++ {
			out = append(out, e.row)
		}
	}
	return out
}

// ViewStateSnapshot is the plain-data copy of a ViewState a dataflow
// view handle keeps in memory as its checkpoint (it is never encoded):
// groups and bag entries in sorted key order, aggregate states flattened
// to (sum, sorted multiset) pairs. The aggregate kinds are not stored —
// they are re-derived from the view's DeltaPlan at restore time, keeping
// the format layout-stable.
type ViewStateSnapshot struct {
	Groups []GroupSnapshot
	Bag    []BagSnapshot
}

// GroupSnapshot is one group's serialized state.
type GroupSnapshot struct {
	Key   storage.Row
	Count int64
	Aggs  []AggSnapshot
}

// AggSnapshot is one aggregate's serialized state: Sum carries
// SUM/AVG accumulators, Multiset the sorted (value, count) pairs of a
// MIN/MAX B-tree (nil otherwise).
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

// Snapshot serializes the state deterministically (sorted keys).
func (v *ViewState) Snapshot() ViewStateSnapshot {
	var snap ViewStateSnapshot
	if v.isAgg {
		keys := make([]string, 0, len(v.groups))
		for k := range v.groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			g := v.groups[k]
			gs := GroupSnapshot{Key: g.keyVals.Clone(), Count: g.count}
			for i := range g.aggs {
				as := AggSnapshot{Sum: g.aggs[i].sum}
				if ms := g.aggs[i].multiset; ms != nil {
					ms.Ascend(func(val storage.Value, n int64) bool {
						as.Multiset = append(as.Multiset, ValueCount{V: val, N: n})
						return true
					})
				}
				gs.Aggs = append(gs.Aggs, as)
			}
			snap.Groups = append(snap.Groups, gs)
		}
		return snap
	}
	keys := make([]string, 0, len(v.bag))
	for k := range v.bag {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := v.bag[k]
		snap.Bag = append(snap.Bag, BagSnapshot{Row: e.row.Clone(), Count: e.count})
	}
	return snap
}

// Restore replaces the state with a snapshot's content. The snapshot
// must come from a view with the same plan shape (aggregate count and
// kinds); a mismatch is an error, not a panic.
func (v *ViewState) Restore(snap ViewStateSnapshot) error {
	v.groups = make(map[string]*groupState, len(snap.Groups))
	v.bag = make(map[string]*bagEntry, len(snap.Bag))
	if v.isAgg {
		if len(snap.Bag) > 0 {
			return fmt.Errorf("ivm: bag entries in an aggregate view snapshot")
		}
		for _, gs := range snap.Groups {
			if len(gs.Aggs) != len(v.aggKinds) {
				return fmt.Errorf("ivm: snapshot group carries %d aggregates, plan has %d", len(gs.Aggs), len(v.aggKinds))
			}
			if len(gs.Key) != v.gbCount {
				return fmt.Errorf("ivm: snapshot group key width %d, plan has %d", len(gs.Key), v.gbCount)
			}
			g := &groupState{keyVals: gs.Key.Clone(), count: gs.Count, aggs: make([]aggState, len(v.aggKinds))}
			for i, kind := range v.aggKinds {
				g.aggs[i] = newAggState(kind)
				g.aggs[i].sum = gs.Aggs[i].Sum
				if g.aggs[i].multiset != nil {
					for _, vc := range gs.Aggs[i].Multiset {
						g.aggs[i].multiset.Set(vc.V, vc.N)
					}
				}
			}
			v.groups[storage.EncodeKey(g.keyVals...)] = g
		}
		return nil
	}
	if len(snap.Groups) > 0 {
		return fmt.Errorf("ivm: group entries in an SPJ view snapshot")
	}
	for _, bs := range snap.Bag {
		v.bag[storage.EncodeKey(bs.Row...)] = &bagEntry{row: bs.Row.Clone(), count: bs.Count}
	}
	return nil
}
