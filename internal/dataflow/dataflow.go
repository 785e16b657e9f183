// Package dataflow is the shared incremental-view runtime: instead of
// one monolithic maintainer per view (internal/ivm), views compile into
// a DAG of composable incremental operators — scan, filter, join — over
// signed-multiplicity delta batches (Z-sets, per DBSP and DBToaster's
// delta processing). Structurally equal sub-plans are hash-consed at
// subscription time, so N overlapping views share one filtered-join
// operator whose output fans out to N per-view sinks. A view stays for
// the graph's life, and so does every operator it interned: nothing is
// torn down, and a Subscribe that fails builds nothing. What is a view's
// alone — its SELECT list, its grouping and aggregates — is not in the
// graph: the sink applies it when a drain folds, so publishing a
// modification does no per-view work beyond buffering. Aggregates do
// live in the graph where views share them: a view of COUNTs, SUMs and
// AVGs of a fact table along a key–FK join reads the join through a
// summary: the fact side's arrangement keeps each join key's base rows pre-aggregated
// — a count and exact sums — so a dimension row's change is one summary
// product, however many facts it joins, and one fold per view
// (DBToaster's "the delta of a sum is the sum of the delta").
//
// Byte-identity with the per-view maintainer rests on coordinate
// attribution: every delta carries, per base table of its producing
// operator, the sequence number of the source modification it derives
// from (0 = base snapshot). Operators propagate eagerly at publish
// time, but each view's sink folds a delta only once the view's
// per-table drain cursors cover all its coordinates. By bilinearity of
// the join, the folded content at cursors (c_1..c_n) is multiset-equal
// to the delta query over base-table prefixes of those lengths — which
// is exactly the state the per-view maintainer holds after draining the
// same batches. A summary product stands for the products of one delta
// with a bucket's base entries, which all share one coordinate, so it
// folds where they would have (see DESIGN.md §14 for the full argument).
package dataflow

import (
	"abivm/internal/exec"
	"abivm/internal/storage"
)

// Coord attributes a delta to source modifications: one entry per base
// table of the producing operator (in the operator's table order),
// holding the 1-based sequence number of the modification on that
// table's ingest log this delta derives from. 0 means "from the base
// snapshot" and is covered by every cursor. A summary product's
// coordinate goes on past its tables with the summary it carries
// (summary).
type Coord []uint64

// summary returns the words a coordinate carries past the entries of the
// producing operator's tables: for a summary product, the fact side's Σw
// and then each summed column's exact sum (exec.ExactSum.AppendWords);
// for any other delta, nothing. Deltas stay a row, a weight and a
// coordinate, so logs hold a summary product in the room of any other.
func (c Coord) summary(tables int) []uint64 { return c[tables:] }

// Delta is one signed-multiplicity change record flowing through the
// operator graph: Row with weight W (+1 insert, -1 retract; joins may
// produce other products of ±1). A join's product for a summary
// — one whose Coord carries one — stands for the summary's rows of the
// fact side joined with Row, the dimension's row alone.
type Delta struct {
	Row   storage.Row
	W     int64
	Coord Coord
}

// summary pre-aggregates rows: their net weight Σw and, per summed
// column, Σw·x kept exact. An arrangement a join summarizes keeps one
// per bucket over the bucket's base entries; a product carries an
// immutable copy of the columns its join sums, as words past its
// coordinate (Coord.summary).
type summary struct {
	n    int64
	sums []exec.ExactSum
}

// words is how many words appendWords writes for the columns at cols.
func (s *summary) words(cols []int) int {
	n := 1
	for _, c := range cols {
		n += s.sums[c].Words()
	}
	return n
}

// appendWords appends Σw and the exact sums of the columns at cols, in
// that order, as words.
func (s *summary) appendWords(dst []uint64, cols []int) []uint64 {
	dst = append(dst, uint64(s.n))
	for _, c := range cols {
		dst = s.sums[c].AppendWords(dst)
	}
	return dst
}

// add folds w copies of a row into the summary; cols are the summed
// columns over the row.
func (s *summary) add(row storage.Row, w int64, cols []exec.Scalar) {
	s.n += w
	for i, col := range cols {
		x := col(row).Float()
		for n := w; n > 0; n-- {
			s.sums[i].Add(x)
		}
		for n := w; n < 0; n++ {
			s.sums[i].Sub(x)
		}
	}
}

// covered reports whether every coordinate is at or below the cursor at
// its position: cursors has one entry per base table of the producing
// operator in the operator's table order, and c begins with those.
func (c Coord) covered(cursors []uint64) bool {
	for i, cur := range cursors {
		if c[i] > cur {
			return false
		}
	}
	return true
}

// visitor receives an operator's present output (node.current) one
// weighted row at a time and counts what the walk visits: live-table rows
// and arrangement entries. Rows not marked loose are netted: distinct
// from one another and non-zero; loose rows may repeat or cancel. sum
// holds the words of a join's row for a summary (currentSummarized,
// Coord.summary). row and sum are lent for the call alone — a join hands
// every pair over in one scratch row — so fn copies what it keeps.
type visitor struct {
	fn     func(row storage.Row, w int64, loose bool, sum []uint64)
	visits uint64
}
