package ivm

import (
	"abivm/internal/btree"
	"abivm/internal/exec"
	"abivm/internal/storage"
)

// groupState holds the incrementally maintainable state of one group: a
// contribution count plus one aggregate state per aggregate item. dirty
// is ViewState's mark that the group is listed as touched since the last
// checkpoint.
type groupState struct {
	keyVals storage.Row // the group-by values
	count   int64       // joined rows contributing to the group
	aggs    []aggState
	dirty   bool
}

// aggState is the incremental state of one aggregate.
type aggState struct {
	kind exec.AggKind
	sum  float64
	// multiset tracks contributing values for MIN/MAX so deletions never
	// force a recompute; nil for other aggregates.
	multiset *btree.Map[storage.Value, int64]
}

func newAggState(kind exec.AggKind) aggState {
	st := aggState{kind: kind}
	if kind == exec.AggMin || kind == exec.AggMax {
		st.multiset = btree.New[storage.Value, int64](storage.Compare)
	}
	return st
}

// add folds one contributing value into the aggregate (v is unused for
// COUNT).
func (st *aggState) add(v storage.Value, stats *storage.Stats) {
	if stats != nil {
		stats.AggUpdates++
	}
	switch st.kind {
	case exec.AggCount:
	case exec.AggSum, exec.AggAvg:
		st.sum += v.Float()
	case exec.AggMin, exec.AggMax:
		n, _ := st.multiset.Get(v)
		st.multiset.Set(v, n+1)
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
		st.sum -= v.Float()
	case exec.AggMin, exec.AggMax:
		n, ok := st.multiset.Get(v)
		if !ok {
			panic("ivm: retracting a value absent from the MIN/MAX multiset")
		}
		if n <= 1 {
			st.multiset.Delete(v)
		} else {
			st.multiset.Set(v, n-1)
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
		return storage.F(st.sum)
	case exec.AggAvg:
		if count == 0 {
			return storage.F(0)
		}
		return storage.F(st.sum / float64(count))
	case exec.AggMin:
		if k, _, ok := st.multiset.Min(); ok {
			return k
		}
		return storage.F(0)
	case exec.AggMax:
		if k, _, ok := st.multiset.Max(); ok {
			return k
		}
		return storage.F(0)
	}
	return storage.Value{}
}
