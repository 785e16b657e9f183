package dataflow

import (
	"fmt"
	"math"
	"slices"
	"time"

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
// fault-injection sites, WAL, checkpoint/recover — so the pub/sub layer
// drives either runtime through the same choreography.
//
// The asymmetry of the paper survives sharing: operators propagate
// eagerly, but folding stays per-view and per-table — ProcessBatch
// advances exactly one table's cursor by exactly k modifications, and
// only deltas whose every coordinate is covered fold into the view.
type ViewHandle struct {
	g    *Graph
	plan *ivm.DeltaPlan

	top     node
	sigs    []string      // post-order node signatures (the refcount receipt)
	project []exec.Scalar // the delta query's SELECT list over the top operator's rows
	row     storage.Row   // a drain's scratch for one projected delta

	// Everything per table is held by position: aliases, tabOrder (the top
	// node's coordinate order), scans and cursors align, because the
	// operator spine is left-deep in FROM order and a view reads a table
	// under one alias only. pos maps an alias to its position.
	aliases  []string
	pos      map[string]int
	tabOrder []string
	scans    []*scanNode // the tables' sources, for their ingest-log lengths
	cursors  []uint64    // covered ingest-log prefix per table
	// durable is the cursors the last checkpoint captured — the
	// subscribe-time cursors before the first: what Recover restores, and
	// what Graph.Trim's watermarks are minima of.
	durable []uint64

	// log is where a delta propagated to this view waits: the top
	// operator's delta log, shared with every view over that operator. A
	// drain folds the deltas its cursor advance newly covers and leaves
	// them where they are; Graph.Trim drops what every reader's checkpoint
	// covers. It is graph state, so it survives a sink crash, and Recover
	// replays drains over it. from is the first of its deltas the cursors
	// do not cover: a drain's walk starts there.
	log   *deltaLog
	from  int
	view  *ivm.ViewState
	stats *storage.Stats

	wal  *ivm.WAL
	inj  fault.Injector
	ns   string
	obs  *ivm.Metrics
	snap *handleSnapshot
}

// handleSnapshot is the checkpoint of a sink besides its cursors
// (ViewHandle.durable): the WAL position they go with and the namespace.
// It holds no view content — the cursors fix it, and Recover rebuilds it
// from the graph (ViewHandle.rebuild) — so a checkpoint copies nothing.
// It lives in the handle (the in-memory durability tier, like the
// broker's default checkpoint chain); the shared graph itself is not
// checkpointed — it survives per-view crashes exactly as the live
// database does.
type handleSnapshot struct {
	lsn uint64
	ns  string
}

// deltaLog is the one buffer of an operator's output that view sinks
// read: every delta the operator emitted that some reader's checkpointed
// cursors do not cover, in emission order, as emitted — unprojected, so
// each is held once however many views read the operator. The graph keeps
// one per operator with sinks. A sink that subscribes later starts with
// cursors that cover every delta already there.
type deltaLog struct {
	src     node
	deltas  []Delta
	readers []*ViewHandle // in subscribe order
	wm      []uint64      // trim's watermark, reused
	ctr     *counters
}

func (l *deltaLog) onDelta(d Delta) {
	l.deltas = append(l.deltas, d)
	l.ctr.retained++
}

// trim drops the deltas every reader's checkpointed cursors cover — those
// the per-position minimum of the readers' durable cursors covers — so
// the log keeps exactly the union of what its readers have not
// checkpointed. No recovery folds a dropped delta again, and no reader's
// from points at one: its live cursors cover it too. The capacity follows
// the peak since the last trim, the length found here: more than twice a
// quarter's slack over it is given back.
func (l *deltaLog) trim() {
	for i := range l.wm {
		l.wm[i] = math.MaxUint64
	}
	for _, h := range l.readers {
		for i, c := range h.durable {
			l.wm[i] = min(l.wm[i], c)
		}
	}
	peak, kept := len(l.deltas), 0
	for i, d := range l.deltas {
		for _, h := range l.readers {
			if h.from == i {
				h.from = kept
			}
		}
		if !d.Coord.covered(l.wm) {
			l.deltas[kept] = d
			kept++
		}
	}
	for _, h := range l.readers {
		if h.from == peak {
			h.from = kept
		}
	}
	l.ctr.retained -= peak - kept
	if size := peak + peak/4 + 1; cap(l.deltas) > 2*size {
		l.deltas = append(make([]Delta, 0, size), l.deltas[:kept]...)
		return
	}
	clear(l.deltas[kept:peak])
	l.deltas = l.deltas[:kept]
}

func newViewHandle(g *Graph, p *ivm.DeltaPlan, top node, items []sql.Expr, sigs []string) (*ViewHandle, error) {
	h := &ViewHandle{
		g:        g,
		plan:     p,
		top:      top,
		sigs:     sigs,
		project:  make([]exec.Scalar, len(items)),
		row:      make(storage.Row, len(items)),
		pos:      make(map[string]int, len(p.Sources)),
		tabOrder: top.tables(),
		stats:    &storage.Stats{},
	}
	for i, e := range items {
		sc, _, err := plan.BindScalar(e, top.cols())
		if err != nil {
			return nil, err
		}
		h.project[i] = sc
	}
	if len(h.tabOrder) != len(p.Sources) {
		return nil, fmt.Errorf("dataflow: view reads %d tables, its top operator %d", len(p.Sources), len(h.tabOrder))
	}
	for i, s := range p.Sources {
		sc := g.scans[s.Table]
		if sc == nil || h.tabOrder[i] != s.Table {
			return nil, fmt.Errorf("dataflow: table %q is not at position %d of the operator spine", s.Table, i)
		}
		h.aliases = append(h.aliases, s.Alias)
		h.pos[s.Alias] = i
		h.scans = append(h.scans, sc)
		h.cursors = append(h.cursors, sc.mods)
	}
	h.durable = slices.Clone(h.cursors)
	h.view = ivm.NewViewState(p, h.stats)
	if err := h.initialize(); err != nil {
		return nil, err
	}
	return h, nil
}

// initialize computes the initial content by running the delta query
// over the live database — which is exactly base plus the ingest-log
// prefixes the subscribe-time cursors cover.
func (h *ViewHandle) initialize() error {
	op, err := plan.Compile(h.plan.Delta, nil, &plan.Options{
		Resolve: h.g.db.Table,
		Stats:   h.stats,
	})
	if err != nil {
		return err
	}
	rows, err := exec.Collect(op)
	if err != nil {
		return err
	}
	h.view.Add(rows)
	*h.stats = storage.Stats{} // initial computation is setup cost
	return nil
}

// Aliases returns the FROM aliases in order; index i corresponds to the
// paper's base table R_i.
func (h *ViewHandle) Aliases() []string { return h.aliases }

// Stats exposes the view-side work-unit counters (folds and drain
// setups; operator work is shared and charged to the graph's tables).
func (h *ViewHandle) Stats() *storage.Stats { return h.stats }

// AttachWAL makes the handle record drain commits to w — all its
// recovery replays; arrivals are on the graph's ingest logs. A nil w
// detaches.
func (h *ViewHandle) AttachWAL(w *ivm.WAL) { h.wal = w }

// WAL returns the attached redo log, or nil.
func (h *ViewHandle) WAL() *ivm.WAL { return h.wal }

// SetNamespace names the handle's durability namespace; checkpoints
// carry it and Recover validates it.
func (h *ViewHandle) SetNamespace(ns string) { h.ns = ns }

// Namespace returns the durability namespace, or "".
func (h *ViewHandle) Namespace() string { return h.ns }

// SetInjector installs a fault injector consulted at the drain sites.
func (h *ViewHandle) SetInjector(inj fault.Injector) { h.inj = inj }

// SetMetrics attaches the maintainer instrumentation bundle.
func (h *ViewHandle) SetMetrics(ms *ivm.Metrics) { h.obs = ms }

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
	if h.obs == nil {
		return h.processBatch(alias, k)
	}
	//lint:ignore nondet drain latency feeds metrics only, never maintained state
	start := time.Now()
	err := h.processBatch(alias, k)
	//lint:ignore nondet measurement of the drain, not part of it
	h.obs.ObserveDrain(time.Since(start), k, err)
	return err
}

func (h *ViewHandle) processBatch(alias string, k int) error {
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
	// Commit point: advance the cursor, fold the deltas it newly covers,
	// log the drain. A failed log append takes the fold and the cursor back.
	old := h.cursors[i]
	h.cursors[i] = old + uint64(k)
	h.fold(i, old, 1)
	if h.wal != nil {
		if _, err := h.wal.Append(ivm.WALRecord{Kind: ivm.WALDrain, Alias: alias, K: k}); err != nil {
			h.fold(i, old, -1)
			h.cursors[i] = old
			return fmt.Errorf("dataflow: wal commit: %w", err)
		}
	}
	h.skipCovered()
	h.stats.BatchSetups++
	return nil
}

// skipCovered moves from past the log's deltas the cursors cover. Cursors
// only advance between calls (Recover resets from first), so everything
// before from stays covered.
func (h *ViewHandle) skipCovered() {
	ds := h.log.deltas
	for h.from < len(ds) && ds[h.from].Coord.covered(h.cursors) {
		h.from++
	}
}

// fold folds every delta a drain newly covers into the view state with
// its weight times dir: 1 applies the drain, -1 takes it back. Only the
// cursor at position pos moved, up from old, so those are the deltas above
// old there that the cursors now cover everywhere — whatever was covered
// before, and so folded by an earlier drain, is at or below old. They all
// lie at or after from, where the walk starts. The first walk folds the
// positive weights and notes the stretch of the log that holds the
// negative ones; a second walk over that stretch folds them. So no entry
// count — a row's multiplicity or a group's — dips below zero on the way,
// whatever order the shared graph emitted the deltas in, and taking a
// drain back restores its retractions first. Sums are exact, so the order
// decides nothing else.
func (h *ViewHandle) fold(pos int, old uint64, dir int64) {
	ds := h.log.deltas[h.from:]
	lo, hi := len(ds), 0
	for i, d := range ds {
		if d.Coord[pos] > old && d.Coord.covered(h.cursors) {
			if w := dir * d.W; w > 0 {
				h.foldDelta(d.Row, w)
			} else {
				lo, hi = min(lo, i), i+1
			}
		}
	}
	for i := lo; i < hi; i++ {
		if d := ds[i]; dir*d.W < 0 && d.Coord[pos] > old && d.Coord.covered(h.cursors) {
			h.foldDelta(d.Row, dir*d.W)
		}
	}
	clear(h.row)
}

// foldDelta projects a row of the top operator's output through the
// SELECT list into the handle's one scratch row and folds it with weight
// w; the view state only borrows the row.
func (h *ViewHandle) foldDelta(row storage.Row, w int64) {
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
// per-view maintainer and the planner, and like theirs not a read (see
// ivm.ViewState.Result).
func (h *ViewHandle) Result() []storage.Row { return h.view.Result() }

// Checkpoint records the per-view durable state in memory: the cursors
// and the WAL position. The content is not copied: the cursors fix it,
// and Recover rebuilds it from the graph. The next Graph.Trim drops the
// logged deltas that every reader's checkpointed cursors now cover — no
// recovery will take them back again. Everything at or below the captured
// LSN may be truncated from the WAL afterwards.
func (h *ViewHandle) Checkpoint() error {
	if h.obs == nil {
		h.checkpoint()
		return nil
	}
	//lint:ignore nondet checkpoint latency feeds metrics only, never checkpoint content
	start := time.Now()
	h.checkpoint()
	//lint:ignore nondet measurement of the checkpoint, not part of it
	h.obs.ObserveCheckpoint(time.Since(start), 0)
	return nil
}

func (h *ViewHandle) checkpoint() {
	if h.snap == nil {
		h.snap = &handleSnapshot{}
	}
	h.snap.ns = h.ns
	copy(h.durable, h.cursors)
	h.snap.lsn = 0
	if h.wal != nil {
		h.snap.lsn = h.wal.LastLSN()
	}
}

// TipLSN returns the WAL position the last checkpoint covers.
func (h *ViewHandle) TipLSN() uint64 {
	if h.snap == nil {
		return 0
	}
	return h.snap.lsn
}

// Recover rebuilds the view from its last checkpoint plus the WAL
// suffix: rebuild the content at the checkpointed cursors from the graph,
// then redo the logged drains over the delta log as it stands — it holds
// every delta the checkpointed cursors do not cover, and the shared graph
// survives a per-view crash as the live database does. The WAL and
// injector stay detached during replay.
func (h *ViewHandle) Recover() error {
	if h.snap == nil {
		return fmt.Errorf("dataflow: no checkpoint to recover %q from", h.ns)
	}
	if h.snap.ns != h.ns {
		return fmt.Errorf("dataflow: checkpoint namespace %q, want %q", h.snap.ns, h.ns)
	}
	h.rebuild()
	copy(h.cursors, h.durable)
	h.from = 0
	h.skipCovered()
	wal, inj := h.wal, h.inj
	h.wal, h.inj = nil, nil
	replayed := 0
	if wal != nil {
		if err := wal.Replay(h.snap.lsn, func(rec ivm.WALRecord) error {
			replayed++
			if rec.Kind != ivm.WALDrain {
				return fmt.Errorf("dataflow: wal record kind %d at lsn %d is not a drain", rec.Kind, rec.LSN)
			}
			if err := h.processBatch(rec.Alias, rec.K); err != nil {
				return fmt.Errorf("dataflow: replaying drain lsn=%d %s/%d: %w", rec.LSN, rec.Alias, rec.K, err)
			}
			return nil
		}); err != nil {
			h.wal, h.inj = wal, inj
			return err
		}
	}
	h.wal, h.inj = wal, inj
	if h.obs != nil {
		h.obs.ObserveRecovery(replayed)
	}
	// Replay work is recovery overhead, not maintenance cost.
	*h.stats = storage.Stats{}
	return nil
}

// rebuild replaces the view state with its content at the checkpointed
// cursors, computed from the graph — the shared graph's recompute. The
// top operator's present output is its content when it was created plus
// every delta it has emitted since; its delta log holds every emitted
// delta some reader's checkpointed cursors do not cover, so every one
// these cursors do not cover. Folding the present output and taking those
// deltas back leaves exactly the deltas the checkpointed cursors cover on
// top of the content at creation: the view at durable. Positive weights
// fold first, so no entry count dips below zero on the way. It reads the
// graph, not the live database, which a sharded broker changes before it
// ingests.
func (h *ViewHandle) rebuild() {
	h.view = ivm.NewViewState(h.plan, h.stats)
	rows := h.top.current()
	for _, sign := range [2]int64{1, -1} {
		for _, wr := range rows {
			if wr.w*sign > 0 {
				h.foldDelta(wr.row, wr.w)
			}
		}
		for _, d := range h.log.deltas {
			if -d.W*sign > 0 && !d.Coord.covered(h.durable) {
				h.foldDelta(d.Row, -d.W)
			}
		}
	}
	clear(h.row)
}
