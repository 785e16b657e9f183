package dataflow

import (
	"fmt"
	"math"
	"slices"

	"abivm/internal/exec"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/plan"
	"abivm/internal/sql"
	"abivm/internal/storage"
)

// ViewHandle is one view's sink on the shared graph — everything that is
// the view's own and no other's: the per-view cursors, its place in the
// delta log of its top operator, the SELECT list it projects the log's
// deltas through, and the foldable view state. None of it runs before a
// drain asks for it. It mirrors the broker-facing surface of
// ivm.Maintainer — aliases, pending counts, ProcessBatch with the same
// fault-injection sites, recover — so the pub/sub layer drives either
// runtime through the same choreography. Its cursors are its recovery
// point: they fix the content, and Recover recomputes it from the graph.
//
// The asymmetry of the paper survives sharing: operators propagate
// eagerly, but folding stays per-view and per-table — ProcessBatch
// advances exactly one table's cursor by exactly k modifications, and
// only deltas whose every coordinate is covered fold into the view.
type ViewHandle struct {
	g    *Graph
	plan *ivm.DeltaPlan

	top     node
	project []exec.Scalar // the delta query's SELECT list over the top operator's rows
	row     storage.Row   // a drain's scratch for one projected delta

	// summarized is set when the view reads its top join through a
	// summary of the fact side (summarize): it folds the join's summary
	// products and skips those of the fact side's base entries, which have
	// the zero coordinate at factPos. For the summaries: the GROUP BY list
	// over a dimension row, each aggregate's index in their sums (-1 for a
	// COUNT), and a fold's scratch — the sums read back from a summary's
	// words, and the one each aggregate merges.
	summarized bool
	factPos    int
	groupBy    []exec.Scalar
	sumArg     []int
	summed     []exec.ExactSum
	sums       []*exec.ExactSum

	// Everything per table is held by position: aliases, tabOrder (the top
	// node's coordinate order), scans and cursors align, because the
	// operator spine is left-deep in FROM order and a view reads a table
	// under one alias only. pos maps an alias to its position.
	aliases  []string
	pos      map[string]int
	tabOrder []string
	scans    []*scanNode // the tables' sources, for their ingest-log lengths
	// cursors is the covered ingest-log prefix per table: what fixes the
	// content, and what Graph.Trim's watermarks are minima of.
	cursors []uint64

	// log is where a delta propagated to this view waits: the top
	// operator's delta log, shared with every view over that operator. A
	// drain folds the deltas its cursor advance newly covers and leaves
	// them where they are; Graph.Trim drops what every reader's cursors
	// cover. It is graph state, so it survives a sink crash, and Recover
	// takes back the deltas in it the cursors do not cover. from is the
	// first of its deltas the cursors do not cover: a drain's walk starts
	// there.
	log   *deltaLog
	from  int
	view  *ivm.ViewState
	stats *storage.Stats
	// retract is a drain's scratch: the positions in the walked log of the
	// deltas it folds after the walk. Its capacity is capped
	// (maxRetractScratch) so one long drain does not pin it.
	retract []int

	wal *ivm.WAL
	inj fault.Injector
}

// deltaLog is the one buffer of an operator's output that view sinks
// read: every delta the operator emitted that the last trim found some
// reader's cursors not covering, and every one emitted since, in emission
// order, as emitted — unprojected, so each is held once however many views
// read the operator. The graph keeps one per operator with sinks. A sink
// that subscribes later starts with cursors that cover every delta
// already there.
type deltaLog struct {
	deltas     []Delta
	readers    []*ViewHandle // in subscribe order
	rowReaders int           // the readers that do not read a join through a summary
	wm         []uint64      // the last trim's watermark
	high       int           // the lengths trims found, smoothed (trim)
	ctr        *counters
}

// A delta log's capacity follows high (deltaLog.trim): logSwing bounds
// how far high may stand above the last length a trim found, and logSlack
// is the room over high a log is given when it grows or gives capacity
// back, in deltas.
const (
	logSwing = 64
	logSlack = 16
)

// onDelta appends a delta, growing the log at once to logSlack over high
// when it is full.
func (l *deltaLog) onDelta(d Delta) {
	if n := len(l.deltas); n == cap(l.deltas) {
		l.deltas = slices.Grow(l.deltas, max(1, l.high+logSlack-n))
	}
	l.deltas = append(l.deltas, d)
	l.ctr.retained++
}

// trim drops the deltas every reader's cursors cover — those the
// per-position minimum of the readers' cursors covers — so the log keeps
// exactly the union of what its readers have not drained. No recovery
// takes a dropped delta back. A reader's from is its first delta its
// cursors do not cover, which a trim keeps, so skipCovered finds it again
// in the compacted log. A log's length here swings widely from one trim
// to the next, and capacity fitted to the last length alone was given
// back only to be grown again at the next. So the capacity follows high:
// the largest length found lately, losing a thirty-second a trim, but
// never more than logSwing above this trim's, so what a stalled reader
// held is given back at the trim after it drained. Capacity more than
// half again beyond high plus logSlack is given back.
func (l *deltaLog) trim() {
	for i := range l.wm {
		l.wm[i] = math.MaxUint64
	}
	for _, h := range l.readers {
		for i, c := range h.cursors {
			l.wm[i] = min(l.wm[i], c)
		}
	}
	peak, kept := len(l.deltas), 0
	for _, d := range l.deltas {
		if !d.Coord.covered(l.wm) {
			l.deltas[kept] = d
			kept++
		}
	}
	l.ctr.retained -= peak - kept
	l.high = min(max(peak, l.high-l.high/32), peak+logSwing)
	if size := l.high + logSlack; 2*cap(l.deltas) > 3*size {
		l.deltas = append(make([]Delta, 0, size), l.deltas[:kept]...)
	} else {
		clear(l.deltas[kept:peak])
		l.deltas = l.deltas[:kept]
	}
	for _, h := range l.readers {
		h.from = 0
		h.skipCovered()
	}
}

// newViewHandle makes the sink of a view whose spec tree top is bound
// but not yet realized: everything a sink can refuse — the projection
// binds against the top operator's columns and hands every SUM and AVG a
// number, the spine reads the view's tables in FROM order — is checked
// here, before the graph builds anything. attach connects it once the
// spine is realized.
func newViewHandle(g *Graph, p *ivm.DeltaPlan, top *opSpec, items []sql.Expr) (*ViewHandle, error) {
	project := make([]exec.Scalar, len(items))
	bound := make([]exec.Col, len(items))
	for i, e := range items {
		var err error
		if project[i], bound[i].Type, err = plan.BindScalar(e, top.cols); err != nil {
			return nil, err
		}
	}
	if err := p.CheckDelta(bound); err != nil {
		return nil, err
	}
	h := &ViewHandle{
		g:        g,
		plan:     p,
		project:  project,
		row:      make(storage.Row, len(items)),
		pos:      make(map[string]int, len(p.Sources)),
		tabOrder: top.tabs,
		stats:    &storage.Stats{},
	}
	if len(h.tabOrder) != len(p.Sources) {
		return nil, fmt.Errorf("dataflow: view reads %d tables, its top operator %d", len(p.Sources), len(h.tabOrder))
	}
	for i, s := range p.Sources {
		if h.tabOrder[i] != s.Table {
			return nil, fmt.Errorf("dataflow: table %q is not at position %d of the operator spine", s.Table, i)
		}
		h.aliases = append(h.aliases, s.Alias)
		h.pos[s.Alias] = i
	}
	if top.summary {
		if err := h.bindSummary(p, top, items); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// bindSummary binds what the sink of a view that reads its join through
// a summary folds a summary product with: its GROUP BY list over the
// dimension's columns, and where each aggregate finds its sum among those
// the join's summaries carry.
func (h *ViewHandle) bindSummary(p *ivm.DeltaPlan, top *opSpec, items []sql.Expr) error {
	h.summarized = true
	dim := top.cols[top.split:]
	if !top.factLeft {
		dim, h.factPos = top.cols[:top.split], 1
	}
	var err error
	if h.groupBy, err = bindScalars(items[:p.GroupCols], dim); err != nil {
		return err
	}
	carried := top.sumColumns()
	for i, k := range p.AggKinds() {
		arg := -1
		if k != exec.AggCount {
			arg = slices.Index(carried, items[p.GroupCols+i].String())
		}
		h.sumArg = append(h.sumArg, arg)
	}
	h.summed = make([]exec.ExactSum, len(carried))
	h.sums = make([]*exec.ExactSum, len(h.sumArg))
	return nil
}

// attach connects a checked sink to its realized top operator: its
// cursors start at the tables' ingest-log lengths, it reads the
// operator's delta log from its end, and its first content is the one
// those cursors fix, rebuilt from the graph.
func (h *ViewHandle) attach(top node) {
	h.top = top
	for _, t := range h.tabOrder {
		sc := h.g.scans[t]
		h.scans = append(h.scans, sc)
		h.cursors = append(h.cursors, sc.mods)
	}
	h.log = h.g.logOf(top)
	h.log.readers = append(h.log.readers, h)
	if !h.summarized {
		h.log.rowReaders++
	}
	h.from = len(h.log.deltas)
	h.rebuild()
}

// Aliases returns the FROM aliases in order; index i corresponds to the
// paper's base table R_i.
func (h *ViewHandle) Aliases() []string { return h.aliases }

// Stats exposes the view-side work-unit counters (folds and drain
// setups; operator work is shared and charged to the graph's tables).
func (h *ViewHandle) Stats() *storage.Stats { return h.stats }

// AttachWAL makes the handle record each drain to w before it commits, so
// a drain whose append fails changes nothing. Recovery reads no such
// record: the cursors are the recovery point. A nil w detaches.
func (h *ViewHandle) AttachWAL(w *ivm.WAL) { h.wal = w }

// SetInjector installs a fault injector consulted at the drain sites.
func (h *ViewHandle) SetInjector(inj fault.Injector) { h.inj = inj }

func (h *ViewHandle) hit(site fault.Site) error {
	if h.inj == nil {
		return nil
	}
	return h.inj.Hit(site)
}

// Pending returns the per-table backlog sizes in alias order — the
// paper's state vector s. For a shared view the backlog of table i is
// the ingest-log length minus the view's cursor.
func (h *ViewHandle) Pending() []int { return h.PendingInto(nil) }

// PendingInto is Pending writing into dst, the allocation-free variant.
func (h *ViewHandle) PendingInto(dst []int) []int {
	if cap(dst) < len(h.aliases) {
		dst = make([]int, len(h.aliases))
	}
	dst = dst[:len(h.aliases)]
	for i, sc := range h.scans {
		dst[i] = int(sc.mods - h.cursors[i])
	}
	return dst
}

// ProcessBatch advances the alias's cursor by the earliest k pending
// modifications and folds every delta that becomes fully covered into
// the view — the action primitive, with the maintainer's drain fault
// sites (plan, apply, wal-commit) hit in the same order so chaos
// scripts consume injector polls identically in both modes.
func (h *ViewHandle) ProcessBatch(alias string, k int) error {
	i, ok := h.pos[alias]
	if !ok {
		return fmt.Errorf("dataflow: unknown alias %q", alias)
	}
	avail := int(h.scans[i].mods - h.cursors[i])
	if k < 0 || k > avail {
		return fmt.Errorf("dataflow: batch size %d out of range (queue %d)", k, avail)
	}
	if k == 0 {
		return nil
	}
	// Nothing is mutated until all three sites have passed.
	if err := h.hit(fault.SiteDrainPlan); err != nil {
		return err
	}
	if err := h.hit(fault.SiteDrainApply); err != nil {
		return err
	}
	if err := h.hit(fault.SiteWALCommit); err != nil {
		return err
	}
	// Commit point: log the drain, then advance the cursor and fold the
	// deltas it newly covers. A failed log append has changed nothing.
	if h.wal != nil {
		if _, err := h.wal.Append(ivm.WALRecord{Kind: ivm.WALDrain, Alias: alias, K: k}); err != nil {
			return fmt.Errorf("dataflow: wal commit: %w", err)
		}
	}
	old := h.cursors[i]
	h.cursors[i] = old + uint64(k)
	h.fold(i, old)
	h.skipCovered()
	h.stats.BatchSetups++
	return nil
}

// skipCovered moves from past the log's deltas the cursors cover. Cursors
// only advance, so everything before from stays covered.
func (h *ViewHandle) skipCovered() {
	ds := h.log.deltas
	for h.from < len(ds) && ds[h.from].Coord.covered(h.cursors) {
		h.from++
	}
}

// maxRetractScratch caps the capacity ViewHandle.retract keeps between
// drains.
const maxRetractScratch = 1 << 10

// fold folds every delta a drain newly covers into the view state. Only
// the cursor at position pos moved, up from old, so those are the deltas
// above old there that the cursors now cover everywhere — whatever was
// covered before, and so folded by an earlier drain, is at or below old.
// They all lie at or after from, where the one walk over the log starts.
// The walk folds the positive weights as it meets them and notes where
// the negative ones are; they fold after it, in log order. So no entry
// count — a row's multiplicity or a group's — dips below zero on the way,
// whatever order the shared graph emitted the deltas in. Sums are exact,
// so the order decides nothing else. The graph counts the deltas folded
// and the log entries visited.
func (h *ViewHandle) fold(pos int, old uint64) {
	ds := h.log.deltas[h.from:]
	folded := 0
	for i, d := range ds {
		if d.Coord[pos] > old && d.Coord.covered(h.cursors) && h.reads(d.Coord) {
			switch {
			case d.W > 0:
				h.foldDelta(d.Row, d.Coord.summary(len(h.cursors)), d.W)
				folded++
			case d.W < 0:
				h.retract = append(h.retract, i)
			}
		}
	}
	for _, i := range h.retract {
		d := ds[i]
		h.foldDelta(d.Row, d.Coord.summary(len(h.cursors)), d.W)
	}
	folded += len(h.retract)
	h.g.ctr.folds += uint64(folded)
	h.g.ctr.foldVisits += uint64(len(ds))
	h.retract = h.retract[:0]
	if cap(h.retract) > maxRetractScratch {
		h.retract = nil
	}
	clear(h.row)
}

// reads reports whether the sink folds a delta of its log with that
// coordinate: a summary product only if the view reads its join through
// a summary, and then no product of a fact base entry, which a summary
// stands for.
func (h *ViewHandle) reads(c Coord) bool {
	if len(c) > len(h.cursors) {
		return h.summarized
	}
	return !h.summarized || c[h.factPos] != 0
}

// foldDelta projects a row of the top operator's output through the
// SELECT list into the handle's one scratch row and folds it with weight
// w; the view state only borrows the row. A summary product — sum holds
// its summary's words (Coord.summary) — folds as one entry: its GROUP BY
// values projected from the dimension row, its count and sums merged w
// times.
func (h *ViewHandle) foldDelta(row storage.Row, sum []uint64, w int64) {
	if len(sum) > 0 {
		for j, sc := range h.groupBy {
			h.row[j] = sc(row)
		}
		n, rest := int64(sum[0]), sum[1:]
		for i := range h.summed {
			rest = h.summed[i].SetWords(rest)
		}
		for i, a := range h.sumArg {
			if a >= 0 {
				h.sums[i] = &h.summed[a]
			}
		}
		h.view.AddSummary(h.row[:len(h.groupBy)], w, n, h.sums)
		return
	}
	for j, sc := range h.project {
		h.row[j] = sc(row)
	}
	h.view.AddWeighted(h.row, w)
}

// Refresh drains every pending modification, one full batch per table
// in alias order, bringing the view fully up to date.
func (h *ViewHandle) Refresh() error {
	for i, alias := range h.aliases {
		if n := int(h.scans[i].mods - h.cursors[i]); n > 0 {
			if err := h.ProcessBatch(alias, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// Result renders the current view content — same layout as the
// per-view maintainer and the planner, and like theirs not a read, its
// rows shared with the view state and read-only (see
// ivm.ViewState.Result).
func (h *ViewHandle) Result() []storage.Row { return h.view.Result() }

// Recover drops the view state and rebuilds it at the cursors from the
// graph, which survives a per-view crash as the live database does. The
// cursors are the sink's whole recovery point: nothing is replayed.
func (h *ViewHandle) Recover() {
	h.rebuild()
}

// rebuild replaces the view state with its content at the cursors,
// computed from the graph — the shared graph's recompute, and how a sink
// gets its first content. The top operator's present output — as the
// view reads it, with summaries in place of fact base entries if it reads
// them — is its content when it was created plus every delta it has
// emitted since; its delta log holds every emitted delta some reader's
// cursors do not cover, so every one these cursors do not cover. Folding
// the present output and taking those deltas back leaves exactly the
// deltas the cursors cover on top of the content at creation. Positive
// weights fold first, so no entry count dips below zero on the way: the
// output's as the walk hands them over, the log's after it, and then the
// output's negative rows, copied in the walk, and the log's taken-back
// insertions. Sums are exact, so the order decides nothing else. Its work
// is set-up or recovery overhead, not maintenance cost: the graph counts
// what its walk visits (RebuildVisits), and no fold.
func (h *ViewHandle) rebuild() {
	h.view = ivm.NewViewState(h.plan, h.stats)
	type retraction struct {
		row storage.Row
		w   int64
		sum []uint64
	}
	var negative []retraction
	v := visitor{fn: func(row storage.Row, w int64, _ bool, sum []uint64) {
		switch {
		case w > 0:
			h.foldDelta(row, sum, w)
		case w < 0:
			negative = append(negative, retraction{row.Clone(), w, slices.Clone(sum)})
		}
	}}
	if h.summarized {
		h.top.(*joinNode).currentSummarized(&v)
	} else {
		h.top.current(&v)
	}
	h.g.ctr.rebuilds += v.visits
	h.takeBack(-1)
	for _, r := range negative {
		h.foldDelta(r.row, r.sum, r.w)
	}
	h.takeBack(1)
	clear(h.row)
	*h.stats = storage.Stats{}
}

// takeBack folds, negated, the logged deltas of weight sign sign that the
// cursors do not cover and the sink reads.
func (h *ViewHandle) takeBack(sign int64) {
	for _, d := range h.log.deltas {
		if d.W*sign > 0 && !d.Coord.covered(h.cursors) && h.reads(d.Coord) {
			h.foldDelta(d.Row, d.Coord.summary(len(h.cursors)), -d.W)
		}
	}
}
