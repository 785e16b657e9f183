package exec

import (
	"fmt"
	"strings"
)

// This file holds the structural accessors and Describe methods the plan
// explainer renders. They expose tree shape only, never mutable state.

// Input returns the filter's child operator.
func (f *Filter) Input() Op { return f.in }

// Input returns the projection's child operator.
func (p *Project) Input() Op { return p.in }

// Input returns the aggregate's child operator.
func (a *HashAgg) Input() Op { return a.in }

// Describe renders the aggregate's grouping and functions.
func (a *HashAgg) Describe() string {
	groups := make([]string, len(a.groupBy))
	inCols := a.in.Columns()
	for i, g := range a.groupBy {
		groups[i] = inCols[g].String()
	}
	aggs := make([]string, len(a.specs))
	for i, sp := range a.specs {
		aggs[i] = sp.Kind.String()
	}
	return fmt.Sprintf("group=[%s] aggs=[%s]", strings.Join(groups, ", "), strings.Join(aggs, ", "))
}

// Left returns the driving input of the hash join.
func (j *HashJoin) Left() Op { return j.left }

// Right returns the stored input of the hash join.
func (j *HashJoin) Right() Op { return j.right }

// Describe renders the hash join's key columns.
func (j *HashJoin) Describe() string {
	lc, rc := j.left.Columns(), j.right.Columns()
	pairs := make([]string, len(j.leftKeys))
	for i := range j.leftKeys {
		pairs[i] = lc[j.leftKeys[i]].String() + "=" + rc[j.rightKeys[i]].String()
	}
	return "on " + strings.Join(pairs, ", ")
}

// Left returns the outer (driving) input of the index join.
func (j *IndexLoopJoin) Left() Op { return j.left }

// Describe renders the index join's inner table and index.
func (j *IndexLoopJoin) Describe() string {
	lc := j.left.Columns()
	keys := make([]string, len(j.leftKeys))
	for i, k := range j.leftKeys {
		keys[i] = lc[k].String()
	}
	return fmt.Sprintf("inner=%s via %s on [%s]",
		j.right.Schema().Name, j.index.Name, strings.Join(keys, ", "))
}

// Describe renders the scan's table and alias.
func (s *SeqScan) Describe() string {
	name := s.table.Schema().Name
	if s.alias != name {
		return name + " AS " + s.alias
	}
	return name
}
