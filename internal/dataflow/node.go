package dataflow

import (
	"fmt"
	"sort"

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
// immutable by convention — a scan's are the live table's own, or copied
// once on ingest, and shared freely downstream — so arrangements and
// delta logs may alias them.
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
	// current returns a deterministic snapshot of the node's present
	// output as net weighted rows — the seed of a newly created
	// arrangement, which treats it as covered-at-creation (coordinate
	// zero).
	current() []weightedRow
	// addOut adds a downstream edge: an operator, an arrangement or the
	// delta log view sinks read.
	addOut(r receiver)
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
}

// nodeBase carries the shared node mechanics: identity, schema and the
// downstream edge list. Operators keep nothing they emit — a delta
// waits in the arrangements and the delta log downstream, nowhere else.
type nodeBase struct {
	signature string
	tabs      []string
	schema    []exec.Col
	outs      []receiver
}

func (n *nodeBase) sig() string       { return n.signature }
func (n *nodeBase) tables() []string  { return n.tabs }
func (n *nodeBase) cols() []exec.Col  { return n.schema }
func (n *nodeBase) addOut(r receiver) { n.outs = append(n.outs, r) }

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

// scanNode is a base-table source. It mirrors the live table (base
// snapshot plus every ingested modification) so deletes and updates can
// resolve the old row, and stamps each emitted delta with the 1-based
// ingest sequence number as its coordinate. The mirror is laid out as
// storage.Table lays out its heap — encoded primary key -> slot, rows by
// slot, freed slots reused — so a key becomes a string only when an
// insert stores it; a delete or an update looks its key up as bytes and
// an update replaces the row in its slot. The rows are the live table's
// own wherever they can be (see keep), so a base row is held once.
type scanNode struct {
	nodeBase
	tbl       *storage.Table
	tableName string
	keyCols   []int
	slots     map[string]int
	rows      []storage.Row // nil entries are free slots
	free      []int
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

// newScanNode mirrors tbl; cols is its output schema (scanCols).
func newScanNode(sig string, tbl *storage.Table, cols []exec.Col, arena *deltaArena) *scanNode {
	schema := tbl.Schema()
	s := &scanNode{
		nodeBase: nodeBase{
			signature: sig,
			tabs:      []string{schema.Name},
			schema:    cols,
		},
		tbl:       tbl,
		tableName: schema.Name,
		keyCols:   schema.Key,
		slots:     make(map[string]int, tbl.Len()),
		rows:      make([]storage.Row, 0, tbl.Len()),
		arena:     arena,
	}
	tbl.Scan(func(r storage.Row) bool {
		var a [64]byte
		s.store(storage.AppendKeyCols(a[:0], r, s.keyCols), r)
		return true
	})
	return s
}

// store puts a row under a key the mirror does not hold yet.
func (s *scanNode) store(key []byte, row storage.Row) {
	slot := len(s.rows)
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
		s.rows[slot] = row
	} else {
		s.rows = append(s.rows, row)
	}
	s.slots[string(key)] = slot
}

// ingest converts one base-table modification into signed deltas and
// propagates them. The coordinate is the modification's position on the
// table's ingest log, in one window of the graph's arena; an update
// emits its retraction and insertion under that same window, so views
// always fold both or neither.
func (s *scanNode) ingest(mod ivm.Mod) error {
	var a [64]byte
	switch mod.Kind {
	case ivm.ModInsert:
		key := storage.AppendKeyCols(a[:0], mod.Row, s.keyCols)
		if _, ok := s.slots[string(key)]; ok {
			return fmt.Errorf("dataflow: insert over existing key on %q", s.tableName)
		}
		row := s.keep(key, mod.Row)
		s.store(key, row)
		s.emit(Delta{Row: row, W: 1, Coord: s.next()})
	case ivm.ModDelete:
		key := storage.AppendKey(a[:0], mod.Key...)
		slot, ok := s.slots[string(key)]
		if !ok {
			return fmt.Errorf("dataflow: delete of missing key on %q", s.tableName)
		}
		old := s.rows[slot]
		delete(s.slots, string(key))
		s.rows[slot] = nil
		s.free = append(s.free, slot)
		s.emit(Delta{Row: old, W: -1, Coord: s.next()})
	case ivm.ModUpdate:
		key := storage.AppendKey(a[:0], mod.Key...)
		slot, ok := s.slots[string(key)]
		if !ok {
			return fmt.Errorf("dataflow: update of missing key on %q", s.tableName)
		}
		if !mod.Row.KeyIs(s.keyCols, mod.Key) {
			return fmt.Errorf("dataflow: update must not change the primary key on %q", s.tableName)
		}
		old, row := s.rows[slot], s.keep(key, mod.Row)
		s.rows[slot] = row
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

// keep returns the row to mirror for an inserted or updated row r under
// an encoded key: the live table's own row under that key when it equals
// r, as it does whenever the live change was applied just before the
// ingest (the serial broker's Publish), and a copy of r otherwise — a
// sharded broker ingests a step's modifications at its end, when a later
// change to the key may have replaced the live row. The lookup charges
// the live table no work unit.
func (s *scanNode) keep(key []byte, r storage.Row) storage.Row {
	if live := s.tbl.Stored(key); live != nil && live.SameKey(r) {
		return live
	}
	return r.Clone()
}

func (s *scanNode) current() []weightedRow {
	keys := make([]string, 0, len(s.slots))
	for k := range s.slots {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]weightedRow, 0, len(keys))
	for _, k := range keys {
		out = append(out, weightedRow{row: s.rows[s.slots[k]], w: 1})
	}
	return out
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

func (f *filterNode) current() []weightedRow {
	var out []weightedRow
	for _, wr := range f.child.current() {
		if f.preds.pass(wr.row) {
			out = append(out, wr)
		}
	}
	return out
}

// baseEntry is one consolidated row of an arrangement: its net weight
// over every input delta the GC watermark has covered. The coordinate is
// not stored — it is always zero.
type baseEntry struct {
	row storage.Row
	w   int64
}

// tailEntry is one input delta of an arrangement that some live cursor
// may still be below: row, attribution, signed weight.
type tailEntry struct {
	row   storage.Row
	coord Coord
	w     int64
}

// bucket holds one join key's share of an arrangement: the consolidated
// base (one entry per distinct row, never zero-weight) and the uncovered
// tail in arrival order. key is the string the bucket is stored under,
// made once when the bucket was: everything that reaches a bucket later
// looks it up by the key's bytes, and a trim that empties it deletes it
// by this.
type bucket struct {
	key  string
	base []baseEntry
	tail []tailEntry
}

// sideState is an arrangement's retained history of its child's output,
// partitioned by equi-join key so a delta — and a trim — touches only its
// own bucket. touched lists the buckets whose tail is non-empty, in the
// order they became so; it is the whole of a trim's work list.
type sideState struct {
	buckets map[string]*bucket
	touched []*bucket
	zero    Coord // the coordinate of every base entry
	ctr     *counters
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
		b = &bucket{key: string(key)}
		s.buckets[b.key] = b
	}
	return b
}

// add appends one arriving delta to its bucket's tail.
func (s *sideState) add(key []byte, d Delta) {
	b := s.bucketFor(key)
	if len(b.tail) == 0 {
		s.touched = append(s.touched, b)
	}
	b.tail = appendTight(b.tail, tailEntry{row: d.Row, coord: d.Coord, w: d.W})
	s.ctr.stateRows++
}

// seed loads a child's present output. Netted rows are base entries as
// they stand; loose ones enter the tail under the zero coordinate, which
// every watermark covers, so the next trim nets them like any other
// covered delta.
func (s *sideState) seed(rows []weightedRow, keys []exec.Scalar) {
	var a [64]byte
	for _, wr := range rows {
		key := appendJoinKey(a[:0], keys, wr.row)
		if wr.loose {
			s.add(key, Delta{Row: wr.row, W: wr.w, Coord: s.zero})
			continue
		}
		b := s.bucketFor(key)
		b.base = appendTight(b.base, baseEntry{row: wr.row, w: wr.w})
		s.ctr.stateRows++
	}
}

// sortedKeys returns the bucket keys in sorted order — the global
// iteration order wherever one is needed, so none leaks from the map.
func (s *sideState) sortedKeys() []string {
	keys := make([]string, 0, len(s.buckets))
	for k := range s.buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// consolidate nets every tail entry the watermark covers into its bucket's
// base — cancelling to zero removes the row — and keeps the rest. Only
// touched buckets are visited, so the cost is O(deltas since the last
// trim × bucket size), independent of the arrangement's total size. Safe
// because every live cursor is at or above the watermark and new
// subscribers start fully covered: nobody can ever distinguish a covered
// entry's coordinate from zero again. wm aligns with the child's
// coordinates.
func (s *sideState) consolidate(wm []uint64) {
	stillTouched := s.touched[:0]
	for _, b := range s.touched {
		s.ctr.trimVisited += uint64(len(b.tail))
		before := len(b.base) + len(b.tail)
		kept, cancelled := 0, false
		for _, e := range b.tail {
			if !e.coord.covered(wm) {
				b.tail[kept] = e
				kept++
				continue
			}
			if b.net(e.row, e.w, s.ctr) {
				cancelled = true
			}
		}
		b.tail = truncTight(b.tail, kept)
		if cancelled {
			live := 0
			for _, e := range b.base {
				if e.w != 0 {
					b.base[live] = e
					live++
				}
			}
			b.base = truncTight(b.base, live)
		}
		s.ctr.stateRows += len(b.base) + len(b.tail) - before
		switch {
		case kept > 0:
			stillTouched = append(stillTouched, b)
		case len(b.base) == 0:
			delete(s.buckets, b.key)
		}
	}
	clear(s.touched[len(stillTouched):])
	s.touched = stillTouched
}

// net folds one covered delta into the base, reporting whether some
// entry now weighs zero (the caller compacts once per bucket).
func (b *bucket) net(row storage.Row, w int64, ctr *counters) bool {
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
// the same keys, which differ only in their residuals. A delta probes the
// opposite bucket once for the whole group, and a product two of its
// joins accept is built once and emitted by both.
type portGroup struct {
	other *arrangement
	left  bool        // the arriving delta is the joins' left input
	joins []*joinNode // in attachment order
	live  []*joinNode // a probe's scratch: the joins whose arriving-side residual passes
}

// arrangement is one child operator's output indexed by one equi-key
// list, in sideState's base/tail bucket layout. The graph interns one per
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
	a.seed(child.current(), keys)
	child.addOut(a)
	return a
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
	g.joins = append(g.joins, j)
	g.live = make([]*joinNode, 0, len(g.joins))
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
// where over the concatenated row. It holds no input state of its own:
// lstate and rstate are the graph's arrangements of its children by its
// key lists, shared with every other join reading the same child under
// the same keys, whatever its residuals. Delta rule: a delta on one side
// joins the other side's full retained state (including negative-weight
// entries), THEN is appended to its own side — each (left, right) pair is
// produced exactly once, when the later of its two inputs arrives.
type joinNode struct {
	nodeBase
	lwhere, rwhere conjunction
	where          conjunction
	lstate, rstate *arrangement
}

// newJoinNode attaches a join to its two arrangements as one port of
// each. It panics if they are one arrangement: ivm.PlanView rejects
// self-joins, and a delta must never probe the bucket it is about to
// join.
func newJoinNode(sig string, lstate, rstate *arrangement, lwhere, rwhere, where conjunction, cols []exec.Col) *joinNode {
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
		where:  where,
		lstate: lstate,
		rstate: rstate,
	}
	lstate.attach(j, true, rstate)
	rstate.attach(j, false, lstate)
	return j
}

// sideWhere is the residual over one input's rows.
func (j *joinNode) sideWhere(left bool) conjunction {
	if left {
		return j.lwhere
	}
	return j.rwhere
}

// appendJoinKey appends a row's equi-join key to dst scalar by scalar,
// as storage.AppendKey does a value list.
func appendJoinKey(dst []byte, fns []exec.Scalar, r storage.Row) []byte {
	for _, fn := range fns {
		dst = storage.AppendKey(dst, fn(r))
	}
	return dst
}

// probe offers the arriving delta to every join of the group. The joins
// whose arriving-side residual rejects it sit the probe out; if none is
// left, the opposite bucket is not even looked up. Otherwise the bucket
// for the delta's key is looked up once, and each of its entries — base
// then tail, each in insertion order — is offered to the remaining joins
// in attachment order, so every join still emits its products in bucket
// order. The first join whose partner-side residual accepts an entry
// builds the product; the first whose where also accepts it fixes its
// coordinate; every later join that accepts it emits that same Delta.
//
// A probe takes its products from the graph's arena (deltaArena): each
// emitted row is a window of the current value chunk and each coordinate
// one of the current word chunk, both capped at their length. A product
// every join rejects leaves its room to the next. The products with a
// base partner share one coordinate, the delta's beside the base's zero;
// each tail partner's product gets its own. Consumers alias the windows
// as they alias any emitted row: a delta log until its readers'
// checkpoints cover the product, an arrangement's tail until a trim nets
// it, an arrangement over a join not at all for rows (it copies what it
// keeps) — so no long-lived state pins a chunk.
func (g *portGroup) probe(key []byte, d Delta) {
	live := g.live[:0]
	for _, j := range g.joins {
		if j.sideWhere(g.left).pass(d.Row) {
			live = append(live, j)
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
	var shared Coord
	for i, n := 0, len(b.base)+len(b.tail); i < n; i++ {
		var partner storage.Row
		var w int64
		var pc Coord // the partner's own coordinate; nil for a base entry
		if i < len(b.base) {
			partner, w = b.base[i].row, b.base[i].w
		} else {
			e := &b.tail[i-len(b.base)]
			partner, w, pc = e.row, e.w, e.coord
		}
		var row storage.Row
		var out Delta
		for _, j := range live {
			if !j.sideWhere(!g.left).pass(partner) {
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

// each visits the bucket's entries, base then tail.
func (b *bucket) each(fn func(row storage.Row, w int64, tail bool)) {
	for _, e := range b.base {
		fn(e.row, e.w, false)
	}
	for _, e := range b.tail {
		fn(e.row, e.w, true)
	}
}

// current pairs the two sides bucket by bucket in sorted key order,
// keeping the pairs all three residuals pass. Products of two base
// entries are distinct and non-zero because base entries are; any product
// involving a tail entry is loose.
func (j *joinNode) current() []weightedRow {
	var out []weightedRow
	for _, key := range j.lstate.sortedKeys() {
		rb := j.rstate.buckets[key]
		if rb == nil {
			continue
		}
		j.lstate.buckets[key].each(func(lrow storage.Row, lw int64, ltail bool) {
			if !j.lwhere.pass(lrow) {
				return
			}
			rb.each(func(rrow storage.Row, rw int64, rtail bool) {
				if !j.rwhere.pass(rrow) {
					return
				}
				if row := concatRows(lrow, rrow); j.where.pass(row) {
					out = append(out, weightedRow{row: row, w: lw * rw, loose: ltail || rtail})
				}
			})
		})
	}
	return out
}
