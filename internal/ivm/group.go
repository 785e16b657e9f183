package ivm

import (
	"abivm/internal/btree"
	"abivm/internal/exec"
	"abivm/internal/storage"
)

// groupState is one entry of a ViewState, the incrementally maintainable
// state of one group: a contribution count plus one aggregate state per
// aggregate item. key is the encoded key values the view holds it under.
// The view drops an entry when its count reaches zero.
type groupState struct {
	key     string
	keyVals storage.Row // the group-by values; an SPJ view's whole row
	count   int64       // joined rows contributing: an SPJ row's multiplicity
	aggs    []aggState  // empty for an SPJ view
}

// aggState is the incremental state of one aggregate.
type aggState struct {
	kind exec.AggKind
	sum  exec.ExactSum
	// multiset tracks contributing values for MIN/MAX so deletions never
	// force a recompute; nil for other aggregates. A group's MINs and MAXes
	// over one argument read the same multiset (DeltaPlan.aggSet); owns marks
	// the one aggregate that updates it.
	multiset *btree.Map[storage.Value, int64]
	owns     bool
}

// newAggStates builds a new group's aggregate states: one multiset per
// distinct MIN/MAX argument, created by the aggregate set[i] == i and
// read by every other aggregate naming it.
func newAggStates(kinds []exec.AggKind, set []int) []aggState {
	aggs := make([]aggState, len(kinds))
	for i, kind := range kinds {
		aggs[i].kind = kind
		switch j := set[i]; {
		case j == i:
			aggs[i].multiset, aggs[i].owns = btree.New[storage.Value, int64](storage.Compare), true
		case j >= 0:
			aggs[i].multiset = aggs[j].multiset
		}
	}
	return aggs
}

func countUp(n *int64) { *n++ }

func countDown(n *int64) bool { *n--; return *n == 0 }

// add folds one contributing value into the aggregate (v is unused for
// COUNT). A shared multiset is updated by its owner alone, in one descent.
func (st *aggState) add(v storage.Value, stats *storage.Stats) {
	if stats != nil {
		stats.AggUpdates++
	}
	switch st.kind {
	case exec.AggCount:
	case exec.AggSum, exec.AggAvg:
		st.sum.Add(v.Float())
	case exec.AggMin, exec.AggMax:
		if st.owns {
			st.multiset.Upsert(v, countUp)
		}
	}
}

// remove retracts one contributing value.
func (st *aggState) remove(v storage.Value, stats *storage.Stats) {
	if stats != nil {
		stats.AggUpdates++
	}
	switch st.kind {
	case exec.AggCount:
	case exec.AggSum, exec.AggAvg:
		st.sum.Sub(v.Float())
	case exec.AggMin, exec.AggMax:
		if st.owns && !st.multiset.DeleteIf(v, countDown) {
			panic("ivm: retracting a value absent from the MIN/MAX multiset")
		}
	}
}

// result renders the aggregate for a group with the given contribution
// count, mirroring exec.HashAgg's conventions for empty groups.
func (st *aggState) result(count int64) storage.Value {
	switch st.kind {
	case exec.AggCount:
		return storage.I(count)
	case exec.AggSum:
		return storage.F(st.sum.Float64())
	case exec.AggAvg:
		if count == 0 {
			return storage.F(0)
		}
		return storage.F(st.sum.Float64() / float64(count))
	case exec.AggMin, exec.AggMax:
		// An empty group has contributed no value: its state may not even
		// carry a multiset (the grand aggregate over nothing).
		if count == 0 {
			return storage.F(0)
		}
		if st.kind == exec.AggMin {
			k, _, _ := st.multiset.Min()
			return k
		}
		k, _, _ := st.multiset.Max()
		return k
	}
	return storage.Value{}
}
