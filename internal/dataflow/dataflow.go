// Package dataflow is the shared incremental-view runtime: instead of
// one monolithic maintainer per view (internal/ivm), views compile into
// a DAG of composable incremental operators — scan, filter, join — over
// signed-multiplicity delta batches (Z-sets, per DBSP and DBToaster's
// delta processing). Structurally equal sub-plans are hash-consed at
// subscription time, so N overlapping views share one filtered-join
// operator whose output fans out to N per-view sinks; a per-operator
// reference count releases only unshared nodes on unsubscribe. What is
// a view's alone — its SELECT list, its grouping and aggregates — is not
// in the graph at all: the sink applies it when a drain folds, so
// publishing a modification does no per-view work beyond buffering.
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
// same batches (see DESIGN.md §14 for the full argument).
package dataflow

import (
	"abivm/internal/storage"
)

// Coord attributes a delta to source modifications: one entry per base
// table of the producing operator (in the operator's table order),
// holding the 1-based sequence number of the modification on that
// table's ingest log this delta derives from. 0 means "from the base
// snapshot" and is covered by every cursor.
type Coord []uint64

// Delta is one signed-multiplicity change record flowing through the
// operator graph: Row with weight W (+1 insert, -1 retract; joins may
// produce other products of ±1).
type Delta struct {
	Row   storage.Row
	W     int64
	Coord Coord
}

// covered reports whether every coordinate is at or below the cursor at
// its position: cursors aligns with c, one entry per base table of the
// producing operator in the operator's table order.
func (c Coord) covered(cursors []uint64) bool {
	for i, v := range c {
		if v > cursors[i] {
			return false
		}
	}
	return true
}

// weightedRow is a row with a multiplicity — the unit of an operator's
// materialized current output (used to seed join states). Rows not
// marked loose are netted: distinct from one another and non-zero.
// Loose rows may repeat or cancel.
type weightedRow struct {
	row   storage.Row
	w     int64
	loose bool
}

// concatRows concatenates a join pair into the combined output row.
func concatRows(l, r storage.Row) storage.Row {
	out := make(storage.Row, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}
