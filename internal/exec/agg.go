package exec

import (
	"fmt"
	"sort"

	"abivm/internal/storage"
)

// AggKind enumerates aggregate functions.
type AggKind uint8

// Supported aggregates.
const (
	AggMin AggKind = iota
	AggMax
	AggSum
	AggCount
	AggAvg
)

// String names the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	case AggAvg:
		return "AVG"
	}
	return fmt.Sprintf("AggKind(%d)", uint8(k))
}

// AggSpec configures one aggregate output: the function and the input
// expression it consumes (nil for COUNT(*)).
type AggSpec struct {
	Kind AggKind
	Arg  Scalar
	Name string // output column name
}

// HashAgg groups input rows by the given key columns and computes
// aggregates. Output rows are the group-by values followed by the
// aggregate results, groups ordered by encoded group key for determinism.
// Every consumed row charges one AggUpdates unit per aggregate.
type HashAgg struct {
	in      Op
	groupBy []int
	specs   []AggSpec
	cols    []Col
	stats   *storage.Stats

	results []storage.Row
	pos     int
}

// aggState accumulates one aggregate within one group.
type aggState struct {
	count    int64
	sum      ExactSum
	min, max storage.Value
	seen     bool
}

// NewHashAgg returns a grouping aggregate over in. groupBy lists input
// column positions; specs configure the aggregate outputs.
func NewHashAgg(in Op, groupBy []int, specs []AggSpec, stats *storage.Stats) (*HashAgg, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("exec: aggregate needs at least one spec")
	}
	inCols := in.Columns()
	cols := make([]Col, 0, len(groupBy)+len(specs))
	for _, g := range groupBy {
		if g < 0 || g >= len(inCols) {
			return nil, fmt.Errorf("exec: group-by column %d out of range", g)
		}
		cols = append(cols, inCols[g])
	}
	for _, sp := range specs {
		typ := storage.TFloat
		if sp.Kind == AggCount {
			typ = storage.TInt
		}
		name := sp.Name
		if name == "" {
			name = sp.Kind.String()
		}
		cols = append(cols, Col{Name: name, Type: typ})
	}
	return &HashAgg{in: in, groupBy: groupBy, specs: specs, cols: cols, stats: stats}, nil
}

// Columns implements Op.
func (a *HashAgg) Columns() []Col { return a.cols }

// Open implements Op: it consumes the entire input and materializes the
// grouped results.
func (a *HashAgg) Open() error {
	if err := a.in.Open(); err != nil {
		return err
	}
	defer a.in.Close()
	if a.stats != nil {
		a.stats.BatchSetups++
	}
	groups := map[string][]*aggState{}
	groupRows := map[string]storage.Row{}
	for {
		r, ok := a.in.Next()
		if !ok {
			break
		}
		keyVals := make([]storage.Value, len(a.groupBy))
		for i, g := range a.groupBy {
			keyVals[i] = r[g]
		}
		key := storage.EncodeKey(keyVals...)
		states, ok := groups[key]
		if !ok {
			states = make([]*aggState, len(a.specs))
			for i := range states {
				states[i] = &aggState{}
			}
			groups[key] = states
			groupRows[key] = keyVals
		}
		for i, sp := range a.specs {
			states[i].update(sp, r)
			if a.stats != nil {
				a.stats.AggUpdates++
			}
		}
	}
	// Grand aggregate with no groups and no input: one row of "empty"
	// aggregates (COUNT 0, others NULL-ish zero values), matching SQL.
	if len(groups) == 0 && len(a.groupBy) == 0 {
		states := make([]*aggState, len(a.specs))
		for i := range states {
			states[i] = &aggState{}
		}
		groups[""] = states
		groupRows[""] = nil
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	a.results = a.results[:0]
	for _, k := range keys {
		row := make(storage.Row, 0, len(a.groupBy)+len(a.specs))
		row = append(row, groupRows[k]...)
		for i, sp := range a.specs {
			row = append(row, groups[k][i].result(sp))
		}
		a.results = append(a.results, row)
	}
	a.pos = 0
	return nil
}

// Next implements Op.
func (a *HashAgg) Next() (storage.Row, bool) {
	if a.pos >= len(a.results) {
		return nil, false
	}
	r := a.results[a.pos]
	a.pos++
	return r, true
}

// Close implements Op.
func (a *HashAgg) Close() { a.results = nil }

func (st *aggState) update(sp AggSpec, r storage.Row) {
	st.count++
	if sp.Kind == AggCount {
		return
	}
	v := sp.Arg(r)
	switch sp.Kind {
	case AggSum, AggAvg:
		st.sum.Add(v.Float())
	case AggMin:
		if !st.seen || storage.Compare(v, st.min) < 0 {
			st.min = v
		}
	case AggMax:
		if !st.seen || storage.Compare(v, st.max) > 0 {
			st.max = v
		}
	}
	st.seen = true
}

func (st *aggState) result(sp AggSpec) storage.Value {
	switch sp.Kind {
	case AggCount:
		return storage.I(st.count)
	case AggSum:
		return storage.F(st.sum.Float64())
	case AggAvg:
		if st.count == 0 {
			return storage.F(0)
		}
		return storage.F(st.sum.Float64() / float64(st.count))
	case AggMin:
		if !st.seen {
			return storage.F(0)
		}
		return st.min
	case AggMax:
		if !st.seen {
			return storage.F(0)
		}
		return st.max
	}
	return storage.Value{}
}
