package ivm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"abivm/internal/storage"
)

// Incremental checkpointing: instead of re-serializing the full replica
// state at every checkpoint, a CheckpointChain keeps one base segment
// (the v1 full-checkpoint format, unchanged) plus a chain of delta
// segments, each covering the WAL range since the previous segment. A
// delta serializes only the replica rows committed drains have touched
// (the maintainer's dirty-key set) plus the pending queues — typically a
// few rows instead of every table. Once the chain holds its configured
// depth of deltas, the next checkpoint rolls over: it writes a fresh
// base from the live replica and drops the deltas. Compact is the
// offline counterpart — a pure transformation of already-written
// segments that never touches the live maintainer, so when it runs
// relative to drains and crashes cannot change what recovery produces.

// deltaCheckpointVersion guards against reading delta segments written
// by an incompatible layout. It is independent of checkpointVersion:
// base segments remain plain v1 full checkpoints, which is what keeps
// pre-chain checkpoints recoverable.
const deltaCheckpointVersion = 1

// deltaDTO is the on-stream delta-segment format. FromLSN names the WAL
// position of the segment it extends and LSN the position it covers
// through; RecoverChain and Compact refuse a chain whose FromLSN links
// don't match — the truncated/reordered-chain guard. Queues replace the
// pending queues wholesale (they are step-sized), while Delta carries
// only the changed replica rows (see storage.WriteSnapshotDelta).
type deltaDTO struct {
	Version   int
	FromLSN   uint64
	LSN       uint64
	Delta     []byte
	Queues    map[string][]Mod
	Namespace string
}

// CheckpointDelta serializes an incremental checkpoint segment to w:
// the replica rows drained since the previous segment (which must have
// covered WAL position fromLSN), the pending queues, and the current
// WAL position. On success the dirty-key set is cleared — the segment
// now owns those changes. Callers normally go through
// CheckpointChain.Checkpoint, which threads fromLSN correctly.
func (m *Maintainer) CheckpointDelta(w io.Writer, fromLSN uint64) error {
	if m.obs == nil {
		return m.checkpointDelta(w, fromLSN)
	}
	cw := &countingWriter{w: w}
	//lint:ignore nondet checkpoint latency feeds metrics only, never checkpoint content
	start := time.Now()
	err := m.checkpointDelta(cw, fromLSN)
	if err == nil {
		//lint:ignore nondet measurement of the checkpoint, not part of it
		m.obs.observeCheckpointDelta(time.Since(start), cw.n)
	}
	return err
}

func (m *Maintainer) checkpointDelta(w io.Writer, fromLSN uint64) error {
	m.cpBuf.Reset()
	if err := m.replica.WriteSnapshotDelta(&m.cpBuf, m.dirty); err != nil {
		return fmt.Errorf("ivm: checkpoint replica delta: %w", err)
	}
	dto := deltaDTO{
		Version:   deltaCheckpointVersion,
		FromLSN:   fromLSN,
		Delta:     m.cpBuf.Bytes(),
		Queues:    m.takeQueues(),
		Namespace: m.ns,
	}
	defer m.releaseQueues(dto.Queues)
	if m.wal != nil {
		dto.LSN = m.wal.LastLSN()
	}
	if err := gob.NewEncoder(w).Encode(dto); err != nil {
		return fmt.Errorf("ivm: encoding checkpoint delta: %w", err)
	}
	m.clearDirty()
	return nil
}

// takeQueues copies the pending delta queues into pooled slices for a
// checkpoint DTO. The copies stay valid until releaseQueues returns
// them to the free list — which the caller does once the DTO is
// encoded, so steady-state checkpointing reuses the same arrays.
func (m *Maintainer) takeQueues() map[string][]Mod {
	if m.cpQueues == nil {
		m.cpQueues = make(map[string][]Mod, len(m.aliases))
	}
	for _, alias := range m.aliases {
		m.cpQueues[alias] = append(m.qpool.get(len(m.deltas[alias])), m.deltas[alias]...)
	}
	return m.cpQueues
}

// releaseQueues returns a takeQueues result to the free list.
func (m *Maintainer) releaseQueues(qs map[string][]Mod) {
	for _, alias := range m.aliases {
		if q, ok := qs[alias]; ok {
			m.qpool.put(q)
			delete(qs, alias)
		}
	}
}

// modPool is a small free list of []Mod backing arrays. The checkpoint
// path takes short-lived copies of every delta queue; recycling them
// makes steady-state checkpointing allocation-free instead of producing
// one garbage slice per queue per checkpoint.
type modPool struct {
	free [][]Mod
}

// get returns a zero-length slice with capacity at least n, reusing a
// freed array when one is large enough.
func (p *modPool) get(n int) []Mod {
	for i := len(p.free) - 1; i >= 0; i-- {
		if cap(p.free[i]) >= n {
			s := p.free[i]
			p.free[i] = p.free[len(p.free)-1]
			p.free = p.free[:len(p.free)-1]
			return s
		}
	}
	if n == 0 {
		return nil
	}
	return make([]Mod, 0, n)
}

// put returns a slice's backing array to the free list.
func (p *modPool) put(s []Mod) {
	if cap(s) == 0 {
		return
	}
	p.free = append(p.free, s[:0])
}

// DefaultChainDepth is the default maximum number of delta segments a
// CheckpointChain accumulates before rolling over to a fresh base.
const DefaultChainDepth = 4

// ChainStore mirrors a chain's segment mutations to a durable backend
// (see internal/durable). PutBase receives every event that resets the
// chain to a single base segment covering WAL position lsn (the first
// checkpoint, a rollover, a compaction, SetBase); PutDelta receives
// every appended delta segment with its FromLSN→LSN link. Calls arrive
// in mutation order on the broker's serial checkpoint path; a store
// error aborts the checkpoint that triggered it.
type ChainStore interface {
	PutBase(seg []byte, lsn uint64) error
	PutDelta(seg []byte, fromLSN, lsn uint64) error
}

// CheckpointChain owns a maintainer's incremental recovery point: one
// base segment (a v1 full checkpoint) plus the delta segments written
// since. It is the unit the broker stores per subscription and hands to
// RecoverChain after a crash. A chain is not safe for concurrent use;
// the broker serializes access under its own lock, like the maintainer
// itself.
type CheckpointChain struct {
	base   []byte
	deltas [][]byte
	tipLSN uint64
	// maxDepth is the rollover trigger: a chain holding maxDepth delta
	// segments takes its next checkpoint as a fresh base. 0 means every
	// checkpoint is a full base, which is exactly the pre-chain
	// full-checkpoint behavior.
	maxDepth int

	store ChainStore
	obs   *Metrics
}

// NewCheckpointChain returns an empty chain rolling over beyond maxDepth
// delta segments; maxDepth < 0 selects DefaultChainDepth.
func NewCheckpointChain(maxDepth int) *CheckpointChain {
	if maxDepth < 0 {
		maxDepth = DefaultChainDepth
	}
	return &CheckpointChain{maxDepth: maxDepth}
}

// RestoreChain rebuilds a chain from segments recovered off a durable
// backend: the base, the delta segments in chain order, and the WAL
// position the last segment covers through. The caller attests the
// segments form a valid FromLSN→LSN chain (recovery re-validates them
// when it folds the chain); maxDepth < 0 selects DefaultChainDepth.
func RestoreChain(base []byte, deltas [][]byte, tipLSN uint64, maxDepth int) *CheckpointChain {
	c := NewCheckpointChain(maxDepth)
	c.base = base
	c.deltas = deltas
	c.tipLSN = tipLSN
	return c
}

// SetMetrics attaches an instrumentation bundle observing rollovers,
// compactions, and chain depth; nil detaches.
func (c *CheckpointChain) SetMetrics(ms *Metrics) { c.obs = ms }

// SetStore attaches a durable mirror receiving every base and delta
// segment the chain writes from now on; nil detaches. Attach before the
// first Checkpoint (or right after RestoreChain, whose adopted segments
// the store already holds) — existing segments are not replayed into it.
func (c *CheckpointChain) SetStore(st ChainStore) { c.store = st }

// putBase mirrors a chain-resetting base segment to the store, if any.
func (c *CheckpointChain) putBase(lsn uint64) error {
	if c.store == nil {
		return nil
	}
	if err := c.store.PutBase(c.base, lsn); err != nil {
		return fmt.Errorf("ivm: chain store base: %w", err)
	}
	return nil
}

// SetMaxDepth changes the rollover trigger; it takes effect at the
// next Checkpoint. n < 0 selects DefaultChainDepth.
func (c *CheckpointChain) SetMaxDepth(n int) {
	if n < 0 {
		n = DefaultChainDepth
	}
	c.maxDepth = n
}

// TipLSN returns the WAL position the chain covers through: everything
// at or below it may be truncated from the WAL.
func (c *CheckpointChain) TipLSN() uint64 { return c.tipLSN }

// Depth returns the current number of delta segments.
func (c *CheckpointChain) Depth() int { return len(c.deltas) }

// HasBase reports whether the chain holds a recovery point at all.
func (c *CheckpointChain) HasBase() bool { return c.base != nil }

// SetBase installs a pre-existing v1 full checkpoint as the chain's
// base segment, dropping any delta segments. This is how a chain adopts
// a checkpoint written before incremental checkpointing existed.
func (c *CheckpointChain) SetBase(base []byte, lsn uint64) error {
	c.base = base
	c.deltas = nil
	c.tipLSN = lsn
	c.observeDepth()
	return c.putBase(lsn)
}

// Checkpoint writes the maintainer's next checkpoint segment into the
// chain: an incremental delta while the chain has room, a full base
// when it is empty or already holds maxDepth delta segments. That
// second case is the rollover: the maintainer *is* the state at the
// chain tip, so the fresh base is serialized straight from its replica
// and replaces base and deltas alike — no step ever decodes, folds and
// re-encodes the segments it wrote (Compact does that, offline). On
// success the chain's tip covers the maintainer's current WAL position,
// so the caller may truncate the WAL through TipLSN.
func (c *CheckpointChain) Checkpoint(m *Maintainer) error {
	lsn := uint64(0)
	if w := m.WAL(); w != nil {
		lsn = w.LastLSN()
	}
	if c.base == nil || len(c.deltas) >= c.maxDepth {
		var buf bytes.Buffer
		if err := m.Checkpoint(&buf); err != nil {
			// Nothing was swapped: the chain still recovers to its old tip.
			return err
		}
		// The base covers everything up to now; dirty keys accumulated
		// before it are folded in.
		m.clearDirty()
		if c.base != nil {
			c.obs.observeCompaction()
		}
		c.base = buf.Bytes()
		c.deltas = nil
		c.tipLSN = lsn
		c.observeDepth()
		return c.putBase(lsn)
	}
	fromLSN := c.tipLSN
	var buf bytes.Buffer
	if err := m.CheckpointDelta(&buf, fromLSN); err != nil {
		return err
	}
	c.deltas = append(c.deltas, buf.Bytes())
	c.tipLSN = lsn
	if c.store != nil {
		if err := c.store.PutDelta(buf.Bytes(), fromLSN, lsn); err != nil {
			return fmt.Errorf("ivm: chain store delta: %w", err)
		}
	}
	c.observeDepth()
	return nil
}

// Compact folds the delta segments into the base, yielding an
// equivalent single-segment chain. It is a pure data transformation of
// the already-written segments — the maintainer is not consulted — so
// it is safe to run at any point between checkpoints: recovery from the
// compacted chain produces byte-identical state to recovery from the
// original chain. Checkpoint never calls it (a rollover gets the same
// base from the live replica for less); it serves callers that hold
// segments but no maintainer.
func (c *CheckpointChain) Compact() error {
	if len(c.deltas) == 0 {
		return nil
	}
	if c.base == nil {
		return fmt.Errorf("ivm: compacting a chain with delta segments but no base")
	}
	var dto checkpointDTO
	if err := gob.NewDecoder(bytes.NewReader(c.base)).Decode(&dto); err != nil {
		return fmt.Errorf("ivm: decoding chain base: %w", err)
	}
	if dto.Version != checkpointVersion {
		return fmt.Errorf("ivm: chain base version %d, want %d", dto.Version, checkpointVersion)
	}
	replica, err := storage.ReadSnapshot(bytes.NewReader(dto.Replica))
	if err != nil {
		return fmt.Errorf("ivm: chain base replica: %w", err)
	}
	if err := foldChainInto(&dto, replica, c.deltas); err != nil {
		return err
	}
	var rbuf bytes.Buffer
	if err := replica.WriteSnapshot(&rbuf); err != nil {
		return fmt.Errorf("ivm: compaction replica snapshot: %w", err)
	}
	dto.Replica = rbuf.Bytes()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		return fmt.Errorf("ivm: encoding compacted base: %w", err)
	}
	c.base = buf.Bytes()
	c.deltas = nil
	c.obs.observeCompaction()
	c.observeDepth()
	return c.putBase(c.tipLSN)
}

func (c *CheckpointChain) observeDepth() {
	if c.obs != nil {
		c.obs.CheckpointChainDepth.Set(float64(len(c.deltas)))
	}
}

// foldChainInto validates and applies delta segments on top of a
// decoded base: the replica absorbs each segment's row delta, the
// queues are replaced by each segment's queue snapshot, and dto.LSN
// advances to the last segment's position. Every continuity violation —
// a missing, reordered, or foreign segment — fails here with a
// diagnosis naming the segment.
func foldChainInto(dto *checkpointDTO, replica *storage.DB, deltas [][]byte) error {
	cur := dto.LSN
	for i, seg := range deltas {
		var d deltaDTO
		if err := gob.NewDecoder(bytes.NewReader(seg)).Decode(&d); err != nil {
			return fmt.Errorf("ivm: decoding delta segment %d: %w", i, err)
		}
		if d.Version != deltaCheckpointVersion {
			return fmt.Errorf("ivm: delta segment %d version %d, want %d", i, d.Version, deltaCheckpointVersion)
		}
		if d.Namespace != dto.Namespace {
			return fmt.Errorf("ivm: delta segment %d namespace %q, want %q", i, d.Namespace, dto.Namespace)
		}
		if d.FromLSN != cur {
			return fmt.Errorf("ivm: delta chain gap at segment %d: extends lsn %d but chain covers %d (truncated or reordered chain)", i, d.FromLSN, cur)
		}
		if err := storage.ApplySnapshotDelta(replica, bytes.NewReader(d.Delta)); err != nil {
			return fmt.Errorf("ivm: applying delta segment %d: %w", i, err)
		}
		dto.Queues = d.Queues
		cur = d.LSN
	}
	dto.LSN = cur
	return nil
}

// RecoverChain rebuilds a crashed maintainer from an incremental
// checkpoint chain plus the WAL: load the base, fold the delta
// segments, recompute the view, then redo the WAL suffix past the
// chain's tip. See Recover for the single-segment contract it extends.
func RecoverChain(live *storage.DB, query string, chain *CheckpointChain, wal *WAL) (*Maintainer, error) {
	return recoverChain(live, query, "", false, chain, wal, nil)
}

// RecoverChainNamespaced is RecoverChain with the namespace-ownership
// check of RecoverNamespaced applied to the base and every delta
// segment.
func RecoverChainNamespaced(live *storage.DB, query, ns string, chain *CheckpointChain, wal *WAL, ms *Metrics) (*Maintainer, error) {
	return recoverChain(live, query, ns, true, chain, wal, ms)
}

func recoverChain(live *storage.DB, query, wantNS string, checkNS bool, chain *CheckpointChain, wal *WAL, ms *Metrics) (*Maintainer, error) {
	if chain == nil || chain.base == nil {
		return nil, fmt.Errorf("ivm: recovering from a checkpoint chain with no base segment")
	}
	return recoverMaintainer(live, query, wantNS, checkNS, bytes.NewReader(chain.base), chain.deltas, wal, ms)
}
