package dataflow

import (
	"fmt"
	"slices"
	"strings"

	"abivm/internal/exec"
	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// receiver consumes deltas emitted by an upstream node. Stateless
// operator nodes are receivers, and so are the delta logs view sinks read
// (deltaLog) and arrangements — a join never subscribes to its children
// itself, it reads them through the arrangements it is a port of.
type receiver interface {
	onDelta(d Delta)
}

// node is one operator in the shared graph. Rows inside deltas are
// immutable by convention — a scan's are the live table's own, shared
// freely downstream — so arrangements and delta logs may alias them.
type node interface {
	// sig is the canonical structural signature; nodes with equal
	// signatures compute identical functions of the base tables and are
	// hash-consed into one instance.
	sig() string
	// tables returns the base tables of the node's output in coordinate
	// order (left-deep FROM order).
	tables() []string
	// cols returns the output schema for binding parent expressions.
	cols() []exec.Col
	// current hands the node's present output to v one weighted row at a
	// time, in a deterministic order: the seed of a newly created
	// arrangement, which treats it as covered-at-creation (coordinate
	// zero), and a sink's rebuild.
	current(v *visitor)
	// addOut adds a downstream edge: an operator, an arrangement or the
	// delta log view sinks read.
	addOut(r receiver)
	// base is the mechanics every operator shares, its delta log among them.
	base() *nodeBase
	// fanout is the number of downstream consumers: direct edges, the
	// sinks reading its delta log, and the join ports reached through an
	// arrangement.
	fanout() int
}

// counters are the graph-wide totals behind GraphStats, shared by
// pointer with every arrangement and delta log so Stats never walks state.
type counters struct {
	stateRows   int    // arrangement entries, base and tail
	retained    int    // deltas in delta logs
	trimVisited uint64 // arrangement entries examined by trims
	probes      uint64 // bucket lookups made by port groups
	products    uint64 // join products built
	folds       uint64 // deltas drains folded into view states
	foldVisits  uint64 // delta-log entries drains walked over
	rebuilds    uint64 // table rows and arrangement entries rebuilds visited
}

// nodeBase carries the shared node mechanics: identity, schema, the
// downstream edge list and the delta log its sinks read, nil until the
// first (Graph.logOf). Operators keep nothing they emit — a delta waits
// in the arrangements and the delta log downstream, nowhere else.
type nodeBase struct {
	signature string
	tabs      []string
	schema    []exec.Col
	outs      []receiver
	log       *deltaLog
}

func (n *nodeBase) sig() string       { return n.signature }
func (n *nodeBase) tables() []string  { return n.tabs }
func (n *nodeBase) cols() []exec.Col  { return n.schema }
func (n *nodeBase) addOut(r receiver) { n.outs = append(n.outs, r) }
func (n *nodeBase) base() *nodeBase   { return n }

// fanout counts an arrangement as the join ports it serves and a delta
// log as the sinks reading it, so sharing a join input or a log does not
// read as the node losing consumers.
func (n *nodeBase) fanout() int {
	f := 0
	for _, o := range n.outs {
		switch o := o.(type) {
		case *arrangement:
			f += o.ports()
		case *deltaLog:
			f += len(o.readers)
		default:
			f++
		}
	}
	return f
}

// emit forwards one delta to every consumer in attachment order
// (deterministic: subscription order). Every consumer gets the same Delta,
// row and coordinate aliased: nothing downstream may write to either.
func (n *nodeBase) emit(d Delta) {
	for _, o := range n.outs {
		o.onDelta(d)
	}
}

// scanNode is a base-table source over the live table it follows: every
// modification it ingests has just been applied to the table, so an
// insert's or an update's new row is the table's own (Table.Stored) and
// a delete's or an update's old row is the one that write displaced
// (Table.Displaced). It holds no copy of the table. It stamps each
// emitted delta with the 1-based ingest sequence number as its
// coordinate.
type scanNode struct {
	nodeBase
	tbl       *storage.Table
	tableName string
	keyCols   []int
	keyVals   []storage.Value // an insert's key values, reused
	mods      uint64
	arena     *deltaArena // the graph's: every coordinate the scan stamps
}

// scanCols is a base table's output schema.
func scanCols(schema *storage.Schema) []exec.Col {
	cols := make([]exec.Col, len(schema.Columns))
	for i, c := range schema.Columns {
		cols[i] = exec.Col{Table: schema.Name, Name: c.Name, Type: c.Type}
	}
	return cols
}

// newScanNode reads tbl; cols is its output schema (scanCols).
func newScanNode(sig string, tbl *storage.Table, cols []exec.Col, arena *deltaArena) *scanNode {
	schema := tbl.Schema()
	return &scanNode{
		nodeBase: nodeBase{
			signature: sig,
			tabs:      []string{schema.Name},
			schema:    cols,
		},
		tbl:       tbl,
		tableName: schema.Name,
		keyCols:   schema.Key,
		arena:     arena,
	}
}

// ingest converts one base-table modification, which the live table must
// reflect as its latest write to the key, into signed deltas and
// propagates them; one it does not reflect is refused before anything
// moves. The coordinate is the modification's position on the table's
// ingest log, in one window of the graph's arena; an update emits its
// retraction and insertion under that same window, so views always fold
// both or neither.
func (s *scanNode) ingest(mod ivm.Mod) error {
	switch mod.Kind {
	case ivm.ModInsert:
		s.keyVals = s.keyVals[:0]
		for _, c := range s.keyCols {
			s.keyVals = append(s.keyVals, mod.Row[c])
		}
		row := s.tbl.Stored(s.keyVals...)
		if row == nil || !row.SameKey(mod.Row) {
			return fmt.Errorf("dataflow: insert on %q is not the live table's row", s.tableName)
		}
		s.emit(Delta{Row: row, W: 1, Coord: s.next()})
	case ivm.ModDelete:
		old := s.tbl.Displaced(mod.Key...)
		if old == nil || s.tbl.Stored(mod.Key...) != nil {
			return fmt.Errorf("dataflow: delete on %q is not the live table's last write", s.tableName)
		}
		s.emit(Delta{Row: old, W: -1, Coord: s.next()})
	case ivm.ModUpdate:
		if !mod.Row.KeyIs(s.keyCols, mod.Key) {
			return fmt.Errorf("dataflow: update must not change the primary key on %q", s.tableName)
		}
		old, row := s.tbl.Displaced(mod.Key...), s.tbl.Stored(mod.Key...)
		if old == nil || row == nil || !row.SameKey(mod.Row) {
			return fmt.Errorf("dataflow: update on %q is not the live table's last write", s.tableName)
		}
		c := s.next()
		s.emit(Delta{Row: old, W: -1, Coord: c})
		s.emit(Delta{Row: row, W: 1, Coord: c})
	default:
		return fmt.Errorf("dataflow: unknown modification kind %d", mod.Kind)
	}
	return nil
}

// next appends a modification to the ingest log and returns its
// coordinate.
func (s *scanNode) next() Coord {
	s.mods++
	c := s.arena.coord(1)
	c[0] = s.mods
	return c
}

// current is the live table in slot order, its own rows.
func (s *scanNode) current(v *visitor) {
	s.tbl.EachStored(func(r storage.Row) {
		v.visits++
		v.fn(r, 1, false, nil)
	})
}

// conjunction is a list of bound predicates that a row passes when it
// passes every one; the empty conjunction passes everything.
type conjunction []exec.Predicate

func (c conjunction) pass(r storage.Row) bool {
	for _, p := range c {
		if !p(r) {
			return false
		}
	}
	return true
}

// filterNode applies a conjunction of predicates: a single-table view's
// WHERE clause, or the table-free conjuncts above a join spine.
type filterNode struct {
	nodeBase
	child node
	preds conjunction
}

func newFilterNode(sig string, child node, preds conjunction) *filterNode {
	f := &filterNode{
		nodeBase: nodeBase{
			signature: sig,
			tabs:      child.tables(),
			schema:    child.cols(),
		},
		child: child,
		preds: preds,
	}
	child.addOut(f)
	return f
}

func (f *filterNode) onDelta(d Delta) {
	if f.preds.pass(d.Row) {
		f.emit(d)
	}
}

func (f *filterNode) current(v *visitor) {
	inner := visitor{fn: func(row storage.Row, w int64, loose bool, sum []uint64) {
		if f.preds.pass(row) {
			v.fn(row, w, loose, sum)
		}
	}}
	f.child.current(&inner)
	v.visits += inner.visits
}

// baseEntry is one consolidated row of an arrangement: its net weight
// over every input delta the GC watermark has covered. The coordinate is
// not stored — it is always zero.
type baseEntry struct {
	row storage.Row
	w   int64
}

// tailEntry is one input delta of an arrangement that some live cursor
// may still be below — row, attribution, signed weight — and its place
// in the arrangement's log: its bucket, and the log index of the
// bucket's next tail entry, -1 at the end of the chain.
type tailEntry struct {
	row   storage.Row
	coord Coord
	w     int64
	b     *bucket
	next  int
}

// bucket holds one join key's share of an arrangement: the consolidated
// base (one entry per distinct row, never zero-weight), the log indices
// of its tail's first and last entries (-1 without a tail), and — once
// a join summarizes the arrangement — sum, the summary of the base over
// every column in sumCols. key is the string the bucket is stored under,
// made once: everything that reaches a bucket later looks it up by the
// key's bytes, and a trim that empties it deletes it by this.
type bucket struct {
	key         string
	base        []baseEntry
	first, last int
	sum         summary
}

// sideState is an arrangement's retained history of its child's output,
// partitioned by equi-join key so a probe touches only its own bucket.
// log holds every delta no trim has netted yet in arrival order, each
// bucket's tail chained through it: one slice, and a trim's whole work
// list. peak is its length at the last trim; cancelled and gone are a
// trim's scratch: the buckets where a netted entry left a zero weight,
// and, when the side keeps literal indexes, those entries' rows. summed lists the
// summaries joins emit of the buckets' bases, kept per bucket as one
// summary over sumCols, each column once. lits are the literal indexes
// joins dispatching on a column of this side read at a rebuild.
type sideState struct {
	buckets   map[string]*bucket
	log       []tailEntry
	peak      int
	cancelled []*bucket
	gone      []storage.Row
	zero      Coord // the coordinate of every base entry
	ctr       *counters
	summed    []summed
	sumCols   []exec.Scalar
	sumKeys   []string // sumCols' canonical expressions
	lits      []*litIndex
}

// litIndex lists, per value of one column, the keys, sorted, of the
// buckets with an entry, base or tail, holding that value — the buckets
// where a join whose residual on this side is one literal equality on
// the column can find a row it accepts. An entry's value is listed when
// it arrives and dropped when a trim nets away the bucket's last entry
// holding it. Tail retractions stay listed until then, so the lists are
// a superset, and a reader still checks the residual.
type litIndex struct {
	col   int
	lists map[storage.Value][]string
}

// note lists bucket key under row's value.
func (ix *litIndex) note(key string, row storage.Row) {
	v := row[ix.col]
	keys := ix.lists[v]
	if i, found := slices.BinarySearch(keys, key); !found {
		ix.lists[v] = slices.Insert(keys, i, key)
	}
}

// indexLiteral makes the arrangement keep a literal index on col, filled
// from every bucket, unless it keeps one already.
func (s *sideState) indexLiteral(col int) {
	if slices.ContainsFunc(s.lits, func(ix *litIndex) bool { return ix.col == col }) {
		return
	}
	ix := &litIndex{col: col, lists: make(map[storage.Value][]string)}
	s.lits = append(s.lits, ix)
	for _, b := range s.buckets {
		s.each(b, func(row storage.Row, _ int64, _ bool) { ix.note(b.key, row) })
	}
}

// litKeys returns the keys of the buckets lit's index lists for its
// value, sorted and read-only, or false when the arrangement keeps no
// index on lit's column.
func (s *sideState) litKeys(lit *literal) ([]string, bool) {
	if lit == nil {
		return nil, false
	}
	for _, ix := range s.lits {
		if ix.col == lit.col {
			return ix.lists[lit.value], true
		}
	}
	return nil, false
}

// unlist drops bucket b from the list of row's value in every literal
// index once no entry of b, base or tail, holds that value.
func (s *sideState) unlist(b *bucket, row storage.Row) {
	for _, ix := range s.lits {
		val, held := row[ix.col], false
		s.each(b, func(r storage.Row, _ int64, _ bool) { held = held || r[ix.col] == val })
		if held {
			continue
		}
		keys := ix.lists[val]
		if i, found := slices.BinarySearch(keys, b.key); found {
			if keys = slices.Delete(keys, i, i+1); len(keys) == 0 {
				delete(ix.lists, val)
			} else {
				ix.lists[val] = keys
			}
		}
	}
}

// summed is one summary that joins emit of an arrangement's buckets:
// its identity (the columns' canonical text, in its order) and where its
// columns are in sumCols. Joins that sum the same columns of one
// arrangement emit one summed.
type summed struct {
	id   string
	cols []int
}

func newSideState(tabs int, ctr *counters) sideState {
	return sideState{buckets: make(map[string]*bucket), zero: make(Coord, tabs), ctr: ctr}
}

// appendTight appends with bounded slack: capacity grows by a quarter,
// not by doubling, because buckets are many, long-lived and random-walk
// in size — doubled capacity would never be given back.
func appendTight[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		grown := make([]T, len(s), len(s)+len(s)/4+1)
		copy(grown, s)
		s = grown
	}
	return append(s, v)
}

// truncTight shortens s to its first n elements, zeroing the rest so
// dropped rows are collectable, and reallocates when more than half the
// capacity would sit unused.
func truncTight[T any](s []T, n int) []T {
	if n == 0 {
		return nil
	}
	if cap(s) > 2*n {
		return append(make([]T, 0, n+n/4+1), s[:n]...)
	}
	clear(s[n:])
	return s[:n]
}

// bucketFor returns the bucket of an encoded join key, making it — and
// the key's only string — when the key is new.
func (s *sideState) bucketFor(key []byte) *bucket {
	b := s.buckets[string(key)]
	if b == nil {
		b = &bucket{key: string(key), first: -1, last: -1}
		if len(s.sumCols) > 0 {
			b.sum.sums = make([]exec.ExactSum, len(s.sumCols))
		}
		s.buckets[b.key] = b
	}
	return b
}

// sumBase folds w copies of a row entering a bucket's base into its
// summary, if a join summarizes the arrangement.
func (s *sideState) sumBase(b *bucket, row storage.Row, w int64) {
	if len(s.summed) > 0 {
		b.sum.add(row, w, s.sumCols)
	}
}

// add appends one arriving delta to the log and its bucket's tail, and
// lists the bucket under its value in every literal index.
func (s *sideState) add(key []byte, d Delta) {
	b := s.bucketFor(key)
	s.link(b, len(s.log))
	s.log = append(s.log, tailEntry{row: d.Row, coord: d.Coord, w: d.W, b: b, next: -1})
	s.ctr.stateRows++
	for _, ix := range s.lits {
		ix.note(b.key, d.Row)
	}
}

// link chains log index i onto the end of b's tail.
func (s *sideState) link(b *bucket, i int) {
	if b.first < 0 {
		b.first = i
	} else {
		s.log[b.last].next = i
	}
	b.last = i
}

// consolidate walks the log once: a covered entry is netted into its
// bucket's base, in arrival order; the rest move down the log, relinked
// onto their emptied chains. After the walk the buckets where a row
// cancelled are compacted, one left with nothing is deleted, and the
// literal indexes drop each such bucket from its row's value's list once
// no entry of it holds the value. Cost:
// O(deltas since the last trim × bucket size), never the arrangement's
// size. Safe because every live cursor is at or above wm (the child's
// coordinates) and new subscribers start fully covered. The capacity
// follows the peak, as deltaLog.trim's does.
func (s *sideState) consolidate(wm []uint64) {
	s.peak = len(s.log)
	s.ctr.trimVisited += uint64(s.peak)
	for _, e := range s.log {
		e.b.first, e.b.last = -1, -1
	}
	kept := 0
	for _, e := range s.log {
		if !e.coord.covered(wm) {
			s.link(e.b, kept)
			e.next = -1
			s.log[kept] = e
			kept++
			continue
		}
		before := len(e.b.base)
		if s.net(e.b, e.row, e.w) {
			s.cancelled = append(s.cancelled, e.b)
			if len(s.lits) > 0 {
				s.gone = append(s.gone, e.row)
			}
		}
		s.ctr.stateRows += len(e.b.base) - before - 1
	}
	for _, b := range s.cancelled {
		live := 0
		for _, e := range b.base {
			if e.w != 0 {
				b.base[live] = e
				live++
			}
		}
		s.ctr.stateRows -= len(b.base) - live
		b.base = truncTight(b.base, live)
		if live == 0 && b.first < 0 {
			delete(s.buckets, b.key)
		}
	}
	for i, row := range s.gone {
		s.unlist(s.cancelled[i], row)
	}
	clear(s.gone)
	s.gone = s.gone[:0]
	clear(s.cancelled)
	s.cancelled = s.cancelled[:0]
	if size := s.peak + s.peak/4 + 1; cap(s.log) > 2*size {
		s.log = append(make([]tailEntry, 0, size), s.log[:kept]...)
		return
	}
	clear(s.log[kept:s.peak])
	s.log = s.log[:kept]
}

// net folds one covered delta into a bucket's base and its summaries,
// reporting whether some entry now weighs zero (the caller compacts the
// bucket after the walk).
func (s *sideState) net(b *bucket, row storage.Row, w int64) bool {
	s.sumBase(b, row, w)
	ctr := s.ctr
	for i := range b.base {
		if b.base[i].row.SameKey(row) {
			ctr.trimVisited += uint64(i + 1)
			b.base[i].w += w
			return b.base[i].w == 0
		}
	}
	ctr.trimVisited += uint64(len(b.base))
	b.base = appendTight(b.base, baseEntry{row: row, w: w})
	return false
}

// portGroup is the join sides an arrangement serves that read one
// arrangement opposite on one side: joins of the same two children under
// the same keys, which differ only in their residuals — or in reading
// the opposite side's rows through a summary. A delta probes the opposite
// bucket once for the whole group, and a product two of its joins accept
// is built once and emitted by both. arriving and partner index the joins
// by their residuals over the arriving delta's rows and over the
// partner's, so a delta or a product visits only the joins it can reach.
type portGroup struct {
	other             *arrangement
	left              bool        // the arriving delta is the joins' left input
	joins             []*joinNode // in attachment order
	arriving, partner dispatch
	// A probe's scratch: live, the positions in joins of the joins whose
	// arriving-side residual passes, ascending; reach, dispatch's.
	live, reach []int
	// summaries is set when some join reads other as its summarized fact
	// side. A probe's scratch then: outs, one summary product per summed of
	// other, built for the first join reading it; rows, per position of a
	// live join, whether it takes base entries' products.
	summaries bool
	outs      []Delta
	rows      []bool
}

// dispatch indexes a port group's joins by their residual over one
// side's rows: byLit lists, by the literal's value, the joins whose
// residual is one literal equality (literal) on column col — the column
// of the first such join — and others every other join. Both hold
// positions in the group's joins, ascending.
type dispatch struct {
	others []int
	col    int
	byLit  map[storage.Value][]int
}

func (d *dispatch) add(pos int, lit *literal) {
	switch {
	case lit != nil && d.byLit == nil:
		d.col, d.byLit = lit.col, map[storage.Value][]int{lit.value: {pos}}
	case d.listed(lit):
		d.byLit[lit.value] = append(d.byLit[lit.value], pos)
	default:
		d.others = append(d.others, pos)
	}
}

// listed reports whether a join whose residual is lit is in byLit — and
// so passes every row reach lists it for without evaluation.
func (d *dispatch) listed(lit *literal) bool {
	return lit != nil && d.byLit != nil && lit.col == d.col
}

// reach returns, ascending, the positions of the joins whose residual
// row may pass: others, and those whose literal row's value is, which
// pass it without evaluation. The result may alias others or *buf.
func (d *dispatch) reach(row storage.Row, buf *[]int) []int {
	if d.byLit == nil {
		return d.others
	}
	out, rest := (*buf)[:0], d.others
	for _, p := range d.byLit[row[d.col]] {
		for len(rest) > 0 && rest[0] < p {
			out, rest = append(out, rest[0]), rest[1:]
		}
		out = append(out, p)
	}
	*buf = append(out, rest...)
	return *buf
}

// arrangement is one child operator's output indexed by one equi-key
// list, as sideState lays it out. The graph interns one per
// (child signature, canonical key list); it subscribes to the child once
// and is referenced — not owned — by every join side that reads that
// child under those keys, so a delta is key-encoded, bucketed and later
// trimmed once however many joins probe it. Its child is never a filter
// of a join input: a join evaluates its inputs' single-table conjuncts
// itself (joinNode.lwhere, rwhere), so joins that differ only in those
// share the arrangement of the unfiltered input.
type arrangement struct {
	sideState
	id     string // "arrange(<child signature>, [<key expressions>])"
	child  node
	keys   []exec.Scalar
	groups []*portGroup // attached join sides by (opposite arrangement, side), in attachment order
	wm     []uint64     // the trim watermark at the child's coordinates, reused
	arena  *deltaArena  // the graph's: the products its port groups build
	// copies is set when the child reads more than one table, so its rows
	// are join products — windows of an arena chunk (portGroup.probe): the
	// arrangement keeps a copy of each, lest a long-lived base entry pin
	// the whole chunk.
	copies bool
}

// newArrangement indexes the child's present output — everything already
// there is covered at creation for whichever view's join asked first, and
// at real, already-covered coordinates for any join attaching later — and
// subscribes to what follows.
func newArrangement(id string, ctr *counters, arena *deltaArena, child node, keys []exec.Scalar) *arrangement {
	tabs := len(child.tables())
	a := &arrangement{
		sideState: newSideState(tabs, ctr),
		id:        id,
		child:     child,
		keys:      keys,
		wm:        make([]uint64, tabs),
		arena:     arena,
		copies:    tabs > 1,
	}
	a.seed()
	child.addOut(a)
	return a
}

// seed loads the child's present output. Netted rows are base entries as
// they stand; loose ones enter the tail under the zero coordinate, which
// every watermark covers, so the next trim nets them like any other
// covered delta. A join's rows are lent for the visit (visitor), so the
// arrangement keeps a copy of each (copies).
func (a *arrangement) seed() {
	var buf [64]byte
	a.child.current(&visitor{fn: func(row storage.Row, w int64, loose bool, _ []uint64) {
		if a.copies {
			row = row.Clone()
		}
		key := appendJoinKey(buf[:0], a.keys, row)
		if loose {
			a.add(key, Delta{Row: row, W: w, Coord: a.zero})
			return
		}
		b := a.bucketFor(key)
		b.base = appendTight(b.base, baseEntry{row: row, w: w})
		a.sumBase(b, row, w)
		a.ctr.stateRows++
	}})
}

// onDelta encodes the key once — into a stack buffer: it becomes a
// string only if the append below has to make a bucket for it — lets
// every port group probe the arrangement opposite it, and only then
// appends the delta to its own bucket. No join has one arrangement on
// both sides and no view reads a table twice, so nothing a port emits can
// reach this arrangement before the append: each (left, right) pair is
// still produced exactly once, when the later of its two inputs arrives.
// A join's product is copied before it is kept (see copies).
func (a *arrangement) onDelta(d Delta) {
	var buf [64]byte
	key := appendJoinKey(buf[:0], a.keys, d.Row)
	for _, g := range a.groups {
		g.probe(key, d)
	}
	if a.copies {
		d.Row = d.Row.Clone()
	}
	a.add(key, d)
}

// attach adds one join side to the group reading other on that side,
// making the group if it is the first.
func (a *arrangement) attach(j *joinNode, left bool, other *arrangement) {
	var g *portGroup
	for _, h := range a.groups {
		if h.other == other && h.left == left {
			g = h
			break
		}
	}
	if g == nil {
		g = &portGroup{other: other, left: left}
		a.groups = append(a.groups, g)
	}
	if lit := j.sideLit(left); lit != nil {
		a.indexLiteral(lit.col)
	}
	g.arriving.add(len(g.joins), j.sideLit(left))
	g.partner.add(len(g.joins), j.sideLit(!left))
	g.joins = append(g.joins, j)
	g.rows = append(g.rows, false)
}

// summaryOf returns the index in summed of the summary of the columns
// keys names, cols over the arrangement's rows. When no join has emitted
// it yet, it is added, and every bucket's base summed into the columns
// its summary lacks — into its count, too, for the arrangement's first.
func (a *arrangement) summaryOf(keys []string, cols []exec.Scalar) int {
	id := strings.Join(keys, ", ")
	for i, sm := range a.summed {
		if sm.id == id {
			return i
		}
	}
	first := len(a.summed) == 0
	sm := summed{id: id}
	var newCols []exec.Scalar
	for i, k := range keys {
		at := slices.Index(a.sumKeys, k)
		if at < 0 {
			at = len(a.sumKeys)
			a.sumKeys = append(a.sumKeys, k)
			a.sumCols = append(a.sumCols, cols[i])
			newCols = append(newCols, cols[i])
		}
		sm.cols = append(sm.cols, at)
	}
	a.summed = append(a.summed, sm)
	for _, key := range sortedKeys(a.buckets) {
		b := a.buckets[key]
		more := summary{sums: make([]exec.ExactSum, len(newCols))}
		for _, e := range b.base {
			more.add(e.row, e.w, newCols)
		}
		if first {
			b.sum.n = more.n
		}
		b.sum.sums = append(b.sum.sums, more.sums...)
	}
	return len(a.summed) - 1
}

// ports is the number of join sides attached.
func (a *arrangement) ports() int {
	n := 0
	for _, g := range a.groups {
		n += len(g.joins)
	}
	return n
}

// trim resolves the per-table watermark to the child's coordinates and
// nets what it covers.
func (a *arrangement) trim(wm map[string]uint64) {
	for i, t := range a.child.tables() {
		a.wm[i] = wm[t]
	}
	a.consolidate(a.wm)
}

// joinNode is a binary equi-join with three residual conjunctions:
// lwhere over its left input's rows, rwhere over its right input's — the
// single-table conjuncts of the tables it brings into the spine — and
// where over the concatenated row; llit and rlit are lwhere and rwhere
// when one literal equality, which port groups dispatch on. It holds no
// input state of its own:
// lstate and rstate are the graph's arrangements of its children by its
// key lists, shared with every other join reading the same child under
// the same keys, whatever its residuals. Delta rule: a delta on one side
// joins the other side's full retained state (including negative-weight
// entries), THEN is appended to its own side — each (left, right) pair is
// produced exactly once, when the later of its two inputs arrives.
//
// A join some view reads through a summary (summarize; sumFact sets fact)
// also emits, for a delta of the side opposite fact — the dimension's —
// one product for the summary sum of the fact bucket's base entries; it
// builds the products of the base entries themselves only while some
// other reader takes them (readsRows). A fact-side delta joins the
// dimension's rows as in any join. The summary sums the columns sumKeys
// names (sumArgs, over the fact side's rows): every column one of those
// views sums, in the order they subscribed.
type joinNode struct {
	nodeBase
	lwhere, rwhere conjunction
	llit, rlit     *literal
	where          conjunction
	lstate, rstate *arrangement
	fact, dim      *arrangement
	sum            int
	sumKeys        []string
	sumArgs        []exec.Scalar
}

// newJoinNode attaches a join to its two arrangements as one port of
// each. It panics if they are one arrangement: ivm.PlanView rejects
// self-joins, and a delta must never probe the bucket it is about to
// join.
func newJoinNode(sig string, lstate, rstate *arrangement, lwhere, rwhere, where conjunction, llit, rlit *literal, cols []exec.Col) *joinNode {
	if lstate == rstate {
		panic("dataflow: join " + sig + " reads one arrangement on both sides")
	}
	ltabs, rtabs := lstate.child.tables(), rstate.child.tables()
	tabs := make([]string, 0, len(ltabs)+len(rtabs))
	tabs = append(tabs, ltabs...)
	tabs = append(tabs, rtabs...)
	j := &joinNode{
		nodeBase: nodeBase{
			signature: sig,
			tabs:      tabs,
			schema:    cols,
		},
		lwhere: lwhere,
		rwhere: rwhere,
		llit:   llit,
		rlit:   rlit,
		where:  where,
		lstate: lstate,
		rstate: rstate,
		sum:    -1,
	}
	lstate.attach(j, true, rstate)
	rstate.attach(j, false, lstate)
	return j
}

// sumFact makes the join emit summaries of its fact side — the left
// side when factLeft — that sum the columns keys names, cols over the
// fact side's rows, beside those it sums already. It appends those it
// lacks, so a sink that reads it finds its columns where they were; the
// summaries it emitted before summed fewer, but only sinks that read it
// then will ever fold them. The fact side, once chosen, stays.
func (j *joinNode) sumFact(factLeft bool, keys []string, cols []exec.Scalar) {
	if j.fact == nil {
		j.fact, j.dim = j.rstate, j.lstate
		if factLeft {
			j.fact, j.dim = j.lstate, j.rstate
		}
		for _, g := range j.dim.groups {
			if g.other == j.fact {
				g.summaries = true
			}
		}
	}
	grown := j.sum < 0
	for i, k := range keys {
		if !slices.Contains(j.sumKeys, k) {
			j.sumKeys, j.sumArgs = append(j.sumKeys, k), append(j.sumArgs, cols[i])
			grown = true
		}
	}
	if grown {
		j.sum = j.fact.summaryOf(j.sumKeys, j.sumArgs)
	}
}

// emitSummary forwards a summary product to the join's delta log, the
// one consumer that reads summaries: an arrangement or a filter below a
// join reads its rows alone.
func (j *joinNode) emitSummary(d Delta) {
	for _, o := range j.outs {
		if l, ok := o.(*deltaLog); ok {
			l.onDelta(d)
		}
	}
}

// readsRows reports whether something reads the join's products of the
// fact side's base entries: a consumer other than its delta log, or a
// sink on the log that does not read the join through a summary.
func (j *joinNode) readsRows() bool {
	for _, o := range j.outs {
		if l, ok := o.(*deltaLog); !ok || l.rowReaders > 0 {
			return true
		}
	}
	return false
}

// sideWhere is the residual over one input's rows.
func (j *joinNode) sideWhere(left bool) conjunction {
	if left {
		return j.lwhere
	}
	return j.rwhere
}

// sideLit is the literal equality one input's residual is, or nil.
func (j *joinNode) sideLit(left bool) *literal {
	if left {
		return j.llit
	}
	return j.rlit
}

// appendJoinKey appends a row's equi-join key to dst scalar by scalar,
// as storage.AppendKey does a value list.
func appendJoinKey(dst []byte, fns []exec.Scalar, r storage.Row) []byte {
	for _, fn := range fns {
		dst = storage.AppendKey(dst, fn(r))
	}
	return dst
}

// probe offers the arriving delta to the joins of the group it can
// reach: those the arriving-side dispatch lists for it, of which the
// joins whose arriving-side residual rejects it sit the probe out; if
// none is left, the opposite bucket is not even looked up. Otherwise the
// bucket for the delta's key is looked up once, and each of its entries —
// base then tail, each in insertion order — is offered to the live joins
// the partner-side dispatch lists for it, in attachment order, so every
// join still emits its products in bucket order. The first join whose
// partner-side residual accepts an entry builds the product; the first
// whose where also accepts it fixes its coordinate; every later join that
// accepts it emits that same Delta. A join dispatched by its literal
// accepts without evaluating its residual, and one the dispatch does not
// list would have rejected: products, their coordinates and their order
// are those of offering every entry to every join.
//
// A join that summarizes the opposite side (its fact side) first gets one
// product for the bucket's summary of its base — built once for every
// join reading that summary, its coordinate carrying a copy of it — and
// then the products of the bucket's entries as any join, those of base
// entries only if it readsRows. Base entries are not even visited when
// no live join takes their products. The rule that makes a view read a
// join through a summary (summarize) leaves the join no fact-side or
// joined-row residual to check.
//
// A probe takes its products from the graph's arena (deltaArena): each
// emitted row is a window of the current value chunk and each coordinate
// one of the current word chunk, both capped at their length. A product
// every join rejects leaves its room to the next. The products with a
// base partner share one coordinate, the delta's beside the base's zero;
// each summary product gets that coordinate of its own, its summary past
// it, and each tail partner's product gets its own. Consumers alias the
// windows as they alias any emitted row: a delta log until its readers'
// cursors cover the product, an arrangement's tail until a trim nets
// it, an arrangement over a join not at all for rows (it copies what it
// keeps) — so no long-lived state pins a chunk.
func (g *portGroup) probe(key []byte, d Delta) {
	live := g.live[:0]
	for _, p := range g.arriving.reach(d.Row, &g.reach) {
		if j := g.joins[p]; g.arriving.listed(j.sideLit(g.left)) || j.sideWhere(g.left).pass(d.Row) {
			live = append(live, p)
		}
	}
	g.live = live
	if len(live) == 0 {
		return
	}
	ctr, arena := g.other.ctr, g.other.arena
	ctr.probes++
	b := g.other.buckets[string(key)]
	if b == nil {
		return
	}
	dispatched := g.partner.byLit != nil
	var shared Coord
	from := 0 // the first entry some live join takes the products of
	if g.summaries {
		if len(g.outs) < len(g.other.summed) {
			g.outs = make([]Delta, len(g.other.summed))
		}
		from = len(b.base)
		for _, p := range live {
			j := g.joins[p]
			if g.rows[p] = j.fact != g.other || j.readsRows(); g.rows[p] {
				from = 0
			}
			if j.fact != g.other || len(b.base) == 0 {
				continue
			}
			out := &g.outs[j.sum]
			if out.Row == nil {
				n := len(d.Coord) + len(g.other.zero)
				c := arena.carrying(n, &b.sum, g.other.summed[j.sum].cols)
				pairInto(c[:n], g.left, d.Coord, g.other.zero)
				*out = Delta{Row: d.Row, W: d.W, Coord: c}
				ctr.products++
			}
			j.emitSummary(*out)
		}
		clear(g.outs)
	}
	// i walks the base from from, then t the tail's chain.
	for i, t := from, b.first; i < len(b.base) || t >= 0; {
		var partner storage.Row
		var w int64
		var pc Coord // the partner's own coordinate; nil for a base entry
		if i < len(b.base) {
			partner, w = b.base[i].row, b.base[i].w
			i++
		} else {
			e := &g.other.log[t]
			partner, w, pc = e.row, e.w, e.coord
			t = e.next
		}
		var row storage.Row
		var out Delta
		reach := live
		if dispatched {
			reach = g.partner.reach(partner, &g.reach)
		}
		for _, p := range reach {
			if dispatched {
				if _, ok := slices.BinarySearch(live, p); !ok {
					continue
				}
			}
			j := g.joins[p]
			if pc == nil && g.summaries && !g.rows[p] || !g.partner.listed(j.sideLit(!g.left)) && !j.sideWhere(!g.left).pass(partner) {
				continue
			}
			if row == nil {
				row = pairInto(arena.row(len(d.Row)+len(partner)), g.left, d.Row, partner)
				ctr.products++
			}
			if !j.where.pass(row) {
				continue
			}
			if out.Row == nil {
				arena.keepRow(len(row))
				if pc == nil && shared == nil {
					shared = pairInto(arena.coord(len(d.Coord)+len(g.other.zero)), g.left, d.Coord, g.other.zero)
				}
				out = Delta{Row: row, W: d.W * w, Coord: shared}
				if pc != nil {
					out.Coord = pairInto(arena.coord(len(d.Coord)+len(pc)), g.left, d.Coord, pc)
				}
			}
			j.emit(out)
		}
	}
}

// pairInto writes a join pair — the arriving side's part and its
// partner's, left part first — into buf, which holds exactly both.
func pairInto[S ~[]E, E any](buf S, left bool, arriving, partner S) S {
	l, r := arriving, partner
	if !left {
		l, r = partner, arriving
	}
	copy(buf[copy(buf, l):], r)
	return buf
}

// each visits a bucket's entries, base then tail.
func (s *sideState) each(b *bucket, fn func(row storage.Row, w int64, tail bool)) {
	for _, e := range b.base {
		fn(e.row, e.w, false)
	}
	for i := b.first; i >= 0; i = s.log[i].next {
		fn(s.log[i].row, s.log[i].w, true)
	}
}

// sideEntry is one entry of a bucket as a rebuild pairs it: its row, its
// weight and whether it is in the tail.
type sideEntry struct {
	row  storage.Row
	w    int64
	tail bool
}

// passing appends to dst the entries of b, base then tail, that where
// passes, counting every entry it visits in v.
func (s *sideState) passing(dst []sideEntry, b *bucket, where conjunction, v *visitor) []sideEntry {
	s.each(b, func(row storage.Row, w int64, tail bool) {
		v.visits++
		if where.pass(row) {
			dst = append(dst, sideEntry{row: row, w: w, tail: tail})
		}
	})
	return dst
}

// pairKeys calls fn, in key order, with the buckets of a and b at every
// key both hold. When lit is a literal a indexes, only the keys its index
// lists for the literal are looked at; otherwise every key of the one of
// a and b with fewer buckets.
func pairKeys(a, b *arrangement, lit *literal, fn func(ab, bb *bucket)) {
	keys, ok := a.litKeys(lit)
	if !ok {
		small := a
		if len(b.buckets) < len(a.buckets) {
			small = b
		}
		keys = sortedKeys(small.buckets)
	}
	for _, k := range keys {
		if ab, bb := a.buckets[k], b.buckets[k]; ab != nil && bb != nil {
			fn(ab, bb)
		}
	}
}

// current pairs the two sides key by key in sorted key order, keeping
// the pairs all three residuals pass, each pair lent in one scratch row.
// One side is walked first: the side whose residual is a literal — the
// right one when both are — which only the keys its arrangement's literal
// index lists for the literal reach; else the filtered side, the right
// one unless only the left is filtered. A key where none of that side's
// entries passes costs the other side nothing. Products of two base
// entries are distinct and non-zero because base entries are; any product
// involving a tail entry is loose.
func (j *joinNode) current(v *visitor) {
	// Left first only when the left residual is the literal, or the only filter.
	leftFirst := j.rlit == nil && (j.llit != nil || len(j.rwhere) == 0 && len(j.lwhere) > 0)
	first, second := j.rstate, j.lstate
	if leftFirst {
		first, second = j.lstate, j.rstate
	}
	row := make(storage.Row, len(j.schema))
	var fs, ss []sideEntry
	pairKeys(first, second, j.sideLit(leftFirst), func(fb, sb *bucket) {
		if fs = first.passing(fs[:0], fb, j.sideWhere(leftFirst), v); len(fs) == 0 {
			return
		}
		ss = second.passing(ss[:0], sb, j.sideWhere(!leftFirst), v)
		ls, rs := ss, fs
		if leftFirst {
			ls, rs = fs, ss
		}
		for _, l := range ls {
			copy(row, l.row)
			for _, r := range rs {
				copy(row[len(l.row):], r.row)
				if j.where.pass(row) {
					v.fn(row, l.w*r.w, l.tail || r.tail, nil)
				}
			}
		}
	})
}

// currentSummarized is current as a view that reads the join through a
// summary sees it: each dimension entry paired with its fact bucket's
// summary, in place of the bucket's base entries — its words lent in one
// scratch slice — and with the bucket's tail entries. The dimension side
// is walked first, at the keys its literal index lists when its residual
// is a literal.
func (j *joinNode) currentSummarized(v *visitor) {
	dimLeft := j.dim == j.lstate
	dimWhere, cols := j.sideWhere(dimLeft), j.fact.summed[j.sum].cols
	row := make(storage.Row, len(j.schema))
	var words []uint64
	pairKeys(j.dim, j.fact, j.sideLit(dimLeft), func(db, fb *bucket) {
		j.dim.each(db, func(drow storage.Row, dw int64, dtail bool) {
			v.visits++
			if !dimWhere.pass(drow) {
				return
			}
			if len(fb.base) > 0 {
				words = fb.sum.appendWords(words[:0], cols)
				v.fn(drow, dw, dtail, words)
			}
			for i := fb.first; i >= 0; i = j.fact.log[i].next {
				e := &j.fact.log[i]
				v.visits++
				v.fn(pairInto(row, dimLeft, drow, e.row), e.w*dw, true, nil)
			}
		})
	})
}
