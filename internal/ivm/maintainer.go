package ivm

import (
	"fmt"

	"abivm/internal/exec"
	"abivm/internal/fault"
	"abivm/internal/plan"
	"abivm/internal/storage"
)

// Maintainer incrementally maintains one materialized view. Modifications
// enter through ApplyDeferred, after ApplyLive has written them to the
// live base tables, and queue as deltas; ProcessBatch drains a prefix of
// one table's delta queue into the view — the action primitive of the
// paper's maintenance plans.
type Maintainer struct {
	live    *storage.DB
	replica *storage.DB
	stats   *storage.Stats // maintenance-side work units (replica DB)

	plan    *DeltaPlan        // the view's delta derivation, inspectable
	aliases []string          // FROM order; index i is the paper's table i
	tables  map[string]string // alias -> table name
	deltas  map[string][]Mod

	// view is the foldable content, keyed entries with counts and aggregate
	// states, shared with the dataflow runtime (see viewstate.go).
	view *ViewState

	// prepared holds, per alias, the delta query (plan.Delta) compiled
	// with that alias's table replaced by a rebindable batch source —
	// built on its first drain and reused by every later one. The
	// operators point at the replica's tables, so setReplica drops them.
	prepared map[string]*preparedDelta

	// Fault-tolerance hooks: an optional redo log of arrivals and drain
	// commits, and an optional fault injector consulted at the drain
	// sites (see internal/fault).
	wal *WAL
	inj fault.Injector

	// ns is the maintainer's durability namespace. It is stamped into
	// every checkpoint segment, and RecoverChainNamespaced refuses a
	// chain whose namespace does not match — the guard that makes a disk
	// chain replayed into another subscription's maintainer fail before
	// any state is rebuilt.
	ns string

	// dirty tracks, per replica table, the primary keys committed drains
	// have touched since the last checkpoint segment — the key set an
	// incremental checkpoint serializes instead of the full replica.
	// Cleared only when a checkpoint segment covering it succeeds.
	dirty map[string]storage.KeySet

	// cpBuf is the scratch a delta checkpoint segment is encoded into,
	// reused across checkpoints so the steady-state checkpoint makes one
	// allocation, the exact-size copy it hands out.
	cpBuf []byte

	// obs counts the maintainer's redo-log appends and truncations,
	// checkpoints and recovery replay; nil (the default) measures nothing.
	obs *Metrics
}

// preparedDelta is one alias's compiled delta query and the source its
// batches are bound to.
type preparedDelta struct {
	src *exec.RowsSource
	op  exec.Op
}

type itemRef struct {
	groupIdx int // >= 0: group-by column position
	aggIdx   int // >= 0: aggregate position
}

// New parses and binds a view definition over the live database, builds
// view-consistent replica tables, and computes the initial view content.
func New(live *storage.DB, query string) (*Maintainer, error) {
	m, err := newSkeleton(live, query)
	if err != nil {
		return nil, err
	}
	if err := m.buildReplicas(); err != nil {
		return nil, err
	}
	if err := m.initialize(); err != nil {
		return nil, err
	}
	return m, nil
}

// newSkeleton parses and binds the view definition and derives the delta
// query, but builds no replicas and computes no content — the shared
// front half of New (replicas snapshotted from live) and RecoverChain
// (replicas loaded from a checkpoint chain). The analysis itself lives
// in PlanView; the skeleton just adopts the resulting DeltaPlan.
func newSkeleton(live *storage.DB, query string) (*Maintainer, error) {
	p, err := PlanView(query)
	if err != nil {
		return nil, err
	}
	m := &Maintainer{
		live:   live,
		plan:   p,
		tables: make(map[string]string),
		deltas: make(map[string][]Mod),
		dirty:  make(map[string]storage.KeySet),
		view:   NewViewState(p, nil),
	}
	for _, s := range p.Sources {
		m.tables[s.Alias] = s.Table
		m.aliases = append(m.aliases, s.Alias)
	}
	return m, nil
}

// Plan returns the view's delta plan — the derivation behind the
// maintainer's delta queries, shared and read-only.
func (m *Maintainer) Plan() *DeltaPlan { return m.plan }

// AttachWAL makes the maintainer record every accepted arrival and every
// committed drain to w, enabling CheckpointChain.Checkpoint and
// RecoverChain. A nil w detaches.
func (m *Maintainer) AttachWAL(w *WAL) { m.wal = w }

// SetNamespace names the maintainer's durability namespace (the broker
// uses the subscription's name). Checkpoints taken afterwards carry the
// namespace, and RecoverChainNamespaced validates it.
func (m *Maintainer) SetNamespace(ns string) { m.ns = ns }

// Namespace returns the durability namespace, or "" when unset.
func (m *Maintainer) Namespace() string { return m.ns }

// WAL returns the attached redo log, or nil.
func (m *Maintainer) WAL() *WAL { return m.wal }

// SetInjector installs a fault injector consulted at the drain sites; a
// nil injector (the default) disables injection.
func (m *Maintainer) SetInjector(inj fault.Injector) { m.inj = inj }

// SetMetrics attaches an instrumentation bundle (see NewMetrics); nil
// (the default) detaches and restores the zero-measurement fast path.
func (m *Maintainer) SetMetrics(ms *Metrics) { m.obs = ms }

// hit consults the fault injector at a site.
func (m *Maintainer) hit(site fault.Site) error {
	if m.inj == nil {
		return nil
	}
	return m.inj.Hit(site)
}

// TruncateWAL drops the attached redo log's records through lsn (see
// WAL.TruncateThrough) — a checkpoint covering lsn makes them
// unnecessary for recovery — and counts the truncation.
func (m *Maintainer) TruncateWAL(lsn uint64) error {
	err := m.wal.TruncateThrough(lsn)
	m.obs.observeWALTruncate()
	return err
}

// Aliases returns the FROM aliases in order; index i corresponds to the
// paper's base table R_i.
func (m *Maintainer) Aliases() []string { return m.aliases }

// Stats exposes the maintenance-side work-unit counters.
func (m *Maintainer) Stats() *storage.Stats { return m.stats }

// buildReplicas snapshots every base table (rows and index definitions)
// into the maintainer's private replica database.
func (m *Maintainer) buildReplicas() error {
	m.setReplica(storage.NewDB())
	for _, alias := range m.aliases {
		src, err := m.live.Table(m.tables[alias])
		if err != nil {
			return err
		}
		if _, err := storage.CloneTable(m.replica, src); err != nil {
			return err
		}
	}
	// Snapshotting is setup cost, not maintenance cost: reset counters.
	*m.stats = storage.Stats{}
	return nil
}

// setReplica installs db as the replica database: work units are charged
// to its counters from here on, and delta plans prepared against the
// previous replica's tables are dropped.
func (m *Maintainer) setReplica(db *storage.DB) {
	m.replica = db
	m.stats = db.Stats()
	m.view.SetStats(m.stats)
	m.prepared = make(map[string]*preparedDelta)
}

// initialize computes the initial view content by running the delta query
// over the full replicas (an "insert everything" delta), charged as setup
// rather than maintenance.
func (m *Maintainer) initialize() error {
	op, err := plan.Compile(m.plan.Delta, nil, &plan.Options{
		Resolve: m.replica.Table,
		Stats:   m.stats,
	})
	if err != nil {
		return err
	}
	if err := m.plan.CheckDelta(op.Columns()); err != nil {
		return err
	}
	rows, err := exec.Collect(op)
	if err != nil {
		return err
	}
	m.view.Add(rows)
	*m.stats = storage.Stats{} // initial computation is setup cost
	return nil
}

// ApplyDeferred enqueues modifications for deferred view maintenance
// WITHOUT applying them to the live base tables: the caller writes each
// live change once, with ApplyLive, and every maintainer over those
// tables only observes it. The replicas stay consistent either way
// because they are private. Each modification is logged before it is
// queued: one the redo log refuses is not queued, nor any after it.
func (m *Maintainer) ApplyDeferred(mods ...Mod) error {
	for _, mod := range mods {
		if _, ok := m.tables[mod.Alias]; !ok {
			return fmt.Errorf("ivm: unknown alias %q", mod.Alias)
		}
		if m.wal != nil {
			if _, err := m.wal.Append(WALRecord{Kind: WALArrival, Mod: mod}); err != nil {
				return err
			}
			m.obs.observeWALAppend()
		}
		m.deltas[mod.Alias] = append(m.deltas[mod.Alias], mod)
	}
	return nil
}

// Pending returns the per-table delta queue sizes in alias order — the
// paper's state vector s.
func (m *Maintainer) Pending() []int { return m.PendingInto(nil) }

// PendingInto is Pending writing into dst (grown when too small) — the
// allocation-free variant for callers that poll the state vector every
// step and can reuse a scratch slice. Returns the filled slice.
func (m *Maintainer) PendingInto(dst []int) []int {
	if cap(dst) < len(m.aliases) {
		dst = make([]int, len(m.aliases))
	}
	dst = dst[:len(m.aliases)]
	for i, a := range m.aliases {
		dst[i] = len(m.deltas[a])
	}
	return dst
}

// ProcessBatch drains the earliest k modifications of the alias's delta
// queue into the view. It is the action primitive: the cost it charges to
// Stats is the paper's f_i(k).
//
// The drain is atomic: the plan phase (net-delta replay and delta joins)
// mutates nothing, and the mutation phase counts its replica writes, so
// any failure — injected or real — rolls the maintainer back to the exact
// pre-action state and the error is safe to retry. View-state folding,
// the WAL commit record, and the queue trim happen only at the commit
// point. Work units charged to Stats by a failed attempt are not undone:
// failed work is still work.
func (m *Maintainer) ProcessBatch(alias string, k int) error {
	queue, ok := m.deltas[alias]
	if !ok {
		if _, known := m.tables[alias]; !known {
			return fmt.Errorf("ivm: unknown alias %q", alias)
		}
	}
	if k < 0 || k > len(queue) {
		return fmt.Errorf("ivm: batch size %d out of range (queue %d)", k, len(queue))
	}
	if k == 0 {
		return nil
	}
	if err := m.hit(fault.SiteDrainPlan); err != nil {
		return err
	}
	batch := queue[:k]

	repl := m.replica.MustTable(m.tables[alias])
	// The batch as one signed relation: delta[:minus] are the rows it
	// retracts, delta[minus:] the rows it inserts.
	delta, minus, keys, err := m.netDelta(repl, batch)
	if err != nil {
		return err
	}
	// out is the view's delta in the same form, split at outMinus.
	out, outMinus, err := m.deltaJoin(alias, repl, delta, minus)
	if err != nil {
		return err
	}

	// Mutation phase: bring replica i up to the post-batch state, the
	// deletions delta[:minus] first, then the insertions delta[minus:]. A
	// mid-batch failure takes back the writes made, newest first, which
	// two counts name, restoring the pre-action replica.
	deleted, inserted := 0, 0
	keyCols := repl.Schema().Key
	undo := func(cause error) error {
		var err error
		for i := minus + inserted - 1; i >= minus && err == nil; i-- {
			_, err = repl.Delete(delta[i].Project(keyCols)...)
		}
		for i := deleted - 1; i >= 0 && err == nil; i-- {
			err = repl.Insert(delta[i])
		}
		if err != nil { // the replica is corrupt: a distinct, non-retryable error
			return fmt.Errorf("ivm: rollback after %v failed: %w", cause, err)
		}
		return cause
	}
	for _, row := range delta[:minus] {
		if _, err := repl.Delete(row.Project(keyCols)...); err != nil {
			return undo(fmt.Errorf("ivm: replica delete: %w", err))
		}
		deleted++
	}
	if err := m.hit(fault.SiteDrainApply); err != nil {
		return undo(err)
	}
	for _, row := range delta[minus:] {
		if err := repl.Insert(row); err != nil {
			return undo(fmt.Errorf("ivm: replica insert: %w", err))
		}
		inserted++
	}
	if err := m.hit(fault.SiteWALCommit); err != nil {
		return undo(err)
	}

	// Commit point: log the drain — a failed append rolls the replica
	// back and leaves the view untouched — then fold the delta into the
	// view state (cannot fail), mark the touched keys dirty for the next
	// incremental checkpoint, trim the queue.
	if m.wal != nil {
		if _, err := m.wal.Append(WALRecord{Kind: WALDrain, Alias: alias, K: k}); err != nil {
			return undo(fmt.Errorf("ivm: wal commit: %w", err))
		}
		m.obs.observeWALAppend()
	}
	m.view.FoldSigned(out, outMinus)
	m.stats.BatchSetups++
	m.markDirty(m.tables[alias], keys)
	// Recycle the drained prefix in place instead of re-slicing: the
	// queue is an append/drain cycle, and keeping the backing array's
	// start fixed lets future arrivals reuse the freed cells. The batch
	// prefix is dead at this point — only its Row contents (separate
	// arrays) live on in the view state.
	if k == len(queue) {
		m.deltas[alias] = queue[:0]
	} else {
		n := copy(queue, queue[k:])
		m.deltas[alias] = queue[:n]
	}
	return nil
}

// markDirty records the keys whose rows a drain changed as dirty since
// the last checkpoint segment, storing the encoding and values netDelta
// took of each: marking encodes and projects nothing. Over-marking is
// safe: the snapshot delta resolves every dirty key against the current
// replica state at write time.
func (m *Maintainer) markDirty(table string, keys []touchedKey) {
	ks := m.dirty[table]
	if ks == nil {
		ks = storage.KeySet{}
		m.dirty[table] = ks
	}
	for _, k := range keys {
		if _, marked := ks[k.enc]; !marked && (k.initial != nil || k.final != nil) {
			ks[k.enc] = k.vals
		}
	}
}

// clearDirty empties the dirty-key sets (keeping their buckets) after a
// checkpoint segment has captured them.
func (m *Maintainer) clearDirty() {
	for _, alias := range m.aliases {
		if ks := m.dirty[m.tables[alias]]; ks != nil {
			clear(ks)
		}
	}
}

// touchedKey is a primary key a batch touches: its encoding, its values
// (an insert's key projection or a modification's own Key), and its
// replica row at batch start and after the batch (nil when absent).
type touchedKey struct {
	enc            string
	vals           []storage.Value
	initial, final storage.Row
}

// netDelta replays a batch against the replica state and collapses it to
// one signed relation: per key, in first-touch order, the row the batch
// retracts (rows[:minus]) and the row it inserts (rows[minus:]). keys are
// the touched keys in that order; a key the batch left as it found it has
// neither row.
func (m *Maintainer) netDelta(repl *storage.Table, batch []Mod) (rows []storage.Row, minus int, keys []touchedKey, err error) {
	keys = make([]touchedKey, 0, len(batch))
	at := make(map[string]int, len(batch)) // encoding -> index in keys
	var a [64]byte
	// touch returns the key, first touching it (and reading its replica
	// row); the pointer is good until the next touch.
	touch := func(vals []storage.Value) *touchedKey {
		enc := storage.AppendKey(a[:0], vals...)
		if i, ok := at[string(enc)]; ok {
			return &keys[i]
		}
		k := touchedKey{enc: string(enc), vals: vals}
		if cur, found := repl.Get(vals...); found {
			k.initial, k.final = cur, cur
		}
		at[k.enc] = len(keys)
		keys = append(keys, k)
		return &keys[len(keys)-1]
	}
	for _, mod := range batch {
		switch mod.Kind {
		case ModInsert:
			k := touch(mod.Row.Project(repl.Schema().Key))
			if k.final != nil {
				return nil, 0, nil, fmt.Errorf("ivm: replay insert over existing key %v", mod.Row)
			}
			k.final = mod.Row
		case ModDelete:
			k := touch(mod.Key)
			if k.final == nil {
				return nil, 0, nil, fmt.Errorf("ivm: replay delete of missing key %v", mod.Key)
			}
			k.final = nil
		case ModUpdate:
			k := touch(mod.Key)
			if k.final == nil {
				return nil, 0, nil, fmt.Errorf("ivm: replay update of missing key %v", mod.Key)
			}
			k.final = mod.Row
		}
	}
	rows = make([]storage.Row, 0, 2*len(keys))
	for i := range keys {
		// A key whose row the batch left as it found it contributes
		// nothing; clearing it lets each pass test one field.
		k := &keys[i]
		if k.initial != nil && k.final != nil && rowsEqual(k.initial, k.final) {
			k.initial, k.final = nil, nil
		}
		if k.initial != nil {
			rows = append(rows, k.initial)
		}
	}
	minus = len(rows)
	for _, k := range keys {
		if k.final != nil {
			rows = append(rows, k.final)
		}
	}
	return rows, minus, keys, nil
}

func rowsEqual(a, b storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !storage.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// deltaJoin runs the delta query once with the alias's table replaced by
// the signed batch, joining it against the view-consistent replicas, and
// returns the output split the same way: out[:split] derives from
// rows[:minus].
func (m *Maintainer) deltaJoin(alias string, repl *storage.Table, rows []storage.Row, minus int) (out []storage.Row, split int, err error) {
	if len(rows) == 0 {
		return nil, 0, nil
	}
	p, err := m.preparedFor(alias, repl)
	if err != nil {
		return nil, 0, err
	}
	p.src.Reset(rows)
	defer p.src.Reset(nil) // the kept plan must not pin the batch
	return exec.CollectSplit(p.op, minus)
}

// preparedFor returns the alias's prepared delta plan, compiling it on
// first use. The plan's shape depends only on the query and on which
// replica tables have which indexes, neither of which changes while the
// replica database stays in place.
func (m *Maintainer) preparedFor(alias string, repl *storage.Table) (*preparedDelta, error) {
	if p := m.prepared[alias]; p != nil {
		return p, nil
	}
	p, err := m.plan.prepare(alias, repl, m.replica.Table, m.stats)
	if err != nil {
		return nil, err
	}
	m.prepared[alias] = p
	return p, nil
}

// Refresh processes every pending delta, one full batch per table in
// alias order, bringing the view fully up to date.
func (m *Maintainer) Refresh() error {
	for _, alias := range m.aliases {
		if n := len(m.deltas[alias]); n > 0 {
			if err := m.ProcessBatch(alias, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// Result renders the current view content in the SELECT-item order, rows
// sorted by group key (aggregate views) or encoded row (SPJ views, with
// multiplicities expanded). The layout matches what executing the view
// query through the planner produces, enabling direct comparison. Not a
// read (see ViewState.Result): no two calls may run at once.
func (m *Maintainer) Result() []storage.Row { return m.view.Result() }
