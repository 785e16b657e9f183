package ivm

import (
	"math"

	"abivm/internal/exec"
	"abivm/internal/storage"
)

// groupState is one entry of a ViewState, the incrementally maintainable
// state of one group: a contribution count plus one aggregate state per
// aggregate item. hash is its key values' hash, the view's map key, and
// next the following entry of the chain of keys that share it. The view
// drops an entry when its count reaches zero.
type groupState struct {
	hash    uint64
	next    *groupState
	keyVals storage.Row // the group-by values; an SPJ view's whole row
	count   int64       // joined rows contributing: an SPJ row's multiplicity
	aggs    []aggState  // empty for an SPJ view
}

// keyedGroup is an entry and its copy of a key of at most two values in
// one allocation, not two.
type keyedGroup struct {
	groupState
	vals [2]storage.Value
}

// newEntry returns an entry whose keyVals are key itself, or with
// copyKey its own copy of key, in its own allocation when key has at most
// two values.
func newEntry(key storage.Row, copyKey bool) *groupState {
	switch {
	case !copyKey:
		return &groupState{keyVals: key}
	case len(key) > len(keyedGroup{}.vals):
		return &groupState{keyVals: key.Clone()}
	}
	k := &keyedGroup{}
	n := copy(k.vals[:], key)
	k.keyVals = k.vals[:n:n]
	return &k.groupState
}

// aggState is the incremental state of one aggregate.
type aggState struct {
	kind exec.AggKind
	sum  exec.ExactSum
	// multiset tracks contributing values for MIN/MAX so deletions never
	// force a recompute; nil for other aggregates. A group's MINs and MAXes
	// over one argument read the same multiset (DeltaPlan.aggSet); owns marks
	// the one aggregate that updates it.
	multiset *multiset
	owns     bool
}

// multiset is a MIN/MAX argument's contributing values: a count per
// distinct value, and the least and greatest value cached. Adding a value
// moves the cache at once; deleting the last copy of a cached extremum
// marks the cache stale instead, and the next result re-scans the counts.
// An INT or FLOAT value is counted under its type and payload bits, a
// TEXT value under its string, so neither map hashes a storage.Value;
// each is made by the first value it counts. −0.0 is counted as +0.0, the
// one value storage.Compare equates with another of its type. Keys still
// tie only where a FLOAT column holds an INT and a FLOAT of one number,
// which render alike.
type multiset struct {
	nums     map[numKey]int64
	texts    map[string]int64
	min, max storage.Value
	stale    bool
}

// numKey is a numeric value as a multiset counts it: its type and its
// payload bits, an integer's two's complement or a float's IEEE pattern.
// Two words, so the map hashes it as plain memory.
type numKey struct{ t, bits uint64 }

// newAggStates builds a new group's aggregate states: one multiset per
// distinct MIN/MAX argument, created by the aggregate set[i] == i and
// read by every other aggregate naming it.
func newAggStates(kinds []exec.AggKind, set []int) []aggState {
	aggs := make([]aggState, len(kinds))
	for i, kind := range kinds {
		aggs[i].kind = kind
		switch j := set[i]; {
		case j == i:
			aggs[i].multiset, aggs[i].owns = &multiset{}, true
		case j >= 0:
			aggs[i].multiset = aggs[j].multiset
		}
	}
	return aggs
}

// numKeyOf is the key of the numeric values equal to v in type and
// number: a zero float is +0.0, whichever sign it carries.
func numKeyOf(v storage.Value) numKey {
	if v.T == storage.TInt {
		return numKey{uint64(storage.TInt), uint64(v.Int())}
	}
	f := v.Float()
	if f == 0 {
		f = 0
	}
	return numKey{uint64(storage.TFloat), math.Float64bits(f)}
}

// value is the value a numeric key counts.
func (k numKey) value() storage.Value {
	if k.t == uint64(storage.TInt) {
		return storage.I(int64(k.bits))
	}
	return storage.F(math.Float64frombits(k.bits))
}

// add counts one copy of v.
func (m *multiset) add(v storage.Value) {
	if v.T == storage.TString {
		if m.texts == nil {
			m.texts = make(map[string]int64)
		}
		m.texts[v.Str()]++
	} else {
		if m.nums == nil {
			m.nums = make(map[numKey]int64)
		}
		k := numKeyOf(v)
		m.nums[k]++
		v = k.value()
	}
	switch {
	case len(m.nums)+len(m.texts) == 1:
		m.min, m.max, m.stale = v, v, false
	case m.stale:
	case storage.Compare(v, m.min) < 0:
		m.min = v
	case storage.Compare(v, m.max) > 0:
		m.max = v
	}
}

// remove uncounts one copy of v; it panics if v has none.
func (m *multiset) remove(v storage.Value) {
	var last bool
	if v.T == storage.TString {
		last = uncount(m.texts, v.Str())
	} else {
		k := numKeyOf(v)
		last, v = uncount(m.nums, k), k.value()
	}
	m.stale = m.stale || last && (v == m.min || v == m.max)
}

// uncount takes one copy of k from counts, reporting whether it was the
// last; it panics if there is none.
func uncount[K comparable](counts map[K]int64, k K) (last bool) {
	switch n := counts[k]; n {
	case 0:
		panic("ivm: retracting a value absent from the MIN/MAX multiset")
	case 1:
		delete(counts, k)
		return true
	default:
		counts[k] = n - 1
		return false
	}
}

// extrema returns the least and greatest value counted, re-scanning the
// counts if a deletion left the cache stale. The multiset is not empty.
func (m *multiset) extrema() (lo, hi storage.Value) {
	if m.stale {
		first := true
		see := func(v storage.Value) {
			if first || storage.Compare(v, m.min) < 0 {
				m.min = v
			}
			if first || storage.Compare(v, m.max) > 0 {
				m.max = v
			}
			first = false
		}
		for k := range m.nums {
			//lint:ignore maporder keys tie only as an INT and a FLOAT of one number, which render alike
			see(k.value())
		}
		for s := range m.texts {
			//lint:ignore maporder distinct strings never tie
			see(storage.S(s))
		}
		m.stale = false
	}
	return m.min, m.max
}

// add folds one contributing value into the aggregate (v is unused for
// COUNT). A shared multiset is updated by its owner alone.
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
			st.multiset.add(v)
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
		if st.owns {
			st.multiset.remove(v)
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
		lo, hi := st.multiset.extrema()
		if st.kind == exec.AggMin {
			return lo
		}
		return hi
	}
	return storage.Value{}
}
