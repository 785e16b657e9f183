package ivm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"abivm/internal/storage"
)

// Checkpointing: a maintainer's recovery point is a CheckpointChain —
// one base segment holding the full replica state plus a chain of delta
// segments, each covering the WAL range since the previous segment. A
// delta serializes only the replica rows committed drains have touched
// (the maintainer's dirty-key set) plus the pending queues — typically a
// few rows instead of every table. Once the chain holds its configured
// depth of deltas, the next checkpoint rolls over: it writes a fresh
// base from the live replica and drops the deltas. Compact is the
// offline counterpart — a pure transformation of already-written
// segments that never touches the live maintainer, so when it runs
// relative to drains and crashes cannot change what recovery produces.
//
// Both kinds of segment share one layout in the packed codec (see
// storage/rowcodec.go; count is a uvarint, strings are length-prefixed):
//
//	segment := version:byte kind:byte namespace fromLSN:uvarint lsn:uvarint
//	           queues:count (alias mods:count mod*)* replica
//
// kind is 0 for a base, whose replica is a storage snapshot and whose
// fromLSN is 0, and 1 for a delta, whose replica is a storage snapshot
// delta and whose fromLSN names the WAL position of the segment it
// extends; folding refuses a chain whose fromLSN links don't match — the
// truncated/reordered-chain guard. lsn is the WAL position the segment
// covers through. The queues replace the pending queues wholesale (they
// are step-sized) and go in FROM order; mod is AppendMod's form. The
// replica bytes run to the end of the segment, so they need no length.
// The view content itself is not stored — it is a pure function of the
// replicas (the delta query over them), so recovery recomputes it,
// keeping the format small and immune to view-state layout changes.

// segmentVersion guards against reading segments of another layout.
// Version 1 was a pair of gob envelopes, which never start with this
// byte.
const segmentVersion = 2

type segmentKind uint8

const (
	segmentBase segmentKind = iota
	segmentDelta
)

// minModSize is the smallest encoded modification (kind, empty alias,
// empty row, empty key); decoders cap a claimed queue length by it.
const minModSize = 4

// aliasQueue is one FROM alias's pending modifications.
type aliasQueue struct {
	alias string
	mods  []Mod
}

// segment is a checkpoint segment's content. replica is filled by
// decodeSegment only: writers append it straight from the database.
type segment struct {
	kind         segmentKind
	ns           string
	fromLSN, lsn uint64
	queues       []aliasQueue
	replica      []byte
}

// appendSegmentHead appends everything of seg up to the replica bytes,
// which the caller appends next.
func appendSegmentHead(dst []byte, seg *segment) ([]byte, error) {
	dst = storage.AppendString(append(dst, segmentVersion, byte(seg.kind)), seg.ns)
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, seg.fromLSN), seg.lsn)
	dst = binary.AppendUvarint(dst, uint64(len(seg.queues)))
	for _, q := range seg.queues {
		dst = binary.AppendUvarint(storage.AppendString(dst, q.alias), uint64(len(q.mods)))
		for _, mod := range q.mods {
			var err error
			if dst, err = AppendMod(dst, mod); err != nil {
				return dst, err
			}
		}
	}
	return dst, nil
}

// decodeSegment is the one reader of checkpoint segments.
func decodeSegment(data []byte) (*segment, error) {
	r := storage.NewReader(data)
	if v := r.Byte(); r.Err() == nil && v != segmentVersion {
		return nil, fmt.Errorf("ivm: checkpoint segment version %d, want %d", v, segmentVersion)
	}
	seg := &segment{kind: segmentKind(r.Byte()), ns: r.Str(), fromLSN: r.Uvarint(), lsn: r.Uvarint()}
	if seg.kind > segmentDelta {
		r.Fail("unknown segment kind %d", uint8(seg.kind))
	}
	seg.queues = make([]aliasQueue, r.Count(2))
	for i := range seg.queues {
		q := &seg.queues[i]
		q.alias = r.Str()
		q.mods = make([]Mod, r.Count(minModSize))
		for j := range q.mods {
			q.mods[j] = ReadMod(r)
		}
	}
	seg.replica = r.Rest()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ivm: decoding checkpoint segment: %w", err)
	}
	return seg, nil
}

// checkpointSegment serializes the maintainer's durable state as one
// segment covering the WAL through lsn: the pending queues, read in
// place, and the replica — all of it for a base, the rows behind the
// dirty keys for a delta extending the segment that covered fromLSN.
// The caller clears the dirty keys once the segment is safely its own.
func (m *Maintainer) checkpointSegment(kind segmentKind, fromLSN, lsn uint64) ([]byte, error) {
	if m.obs == nil {
		return m.encodeSegment(kind, fromLSN, lsn)
	}
	//lint:ignore nondet checkpoint latency feeds metrics only, never checkpoint content
	start := time.Now()
	seg, err := m.encodeSegment(kind, fromLSN, lsn)
	if err == nil {
		//lint:ignore nondet measurement of the checkpoint, not part of it
		m.obs.observeCheckpoint(kind, time.Since(start), len(seg))
	}
	return seg, err
}

func (m *Maintainer) encodeSegment(kind segmentKind, fromLSN, lsn uint64) ([]byte, error) {
	seg := segment{kind: kind, ns: m.ns, fromLSN: fromLSN, lsn: lsn, queues: make([]aliasQueue, len(m.aliases))}
	for i, alias := range m.aliases {
		seg.queues[i] = aliasQueue{alias: alias, mods: m.deltas[alias]}
	}
	if kind == segmentBase {
		// A base gets a buffer of its own (AppendSnapshot grows it once to
		// the replica's size) rather than cpBuf: that one outlives the
		// call, and a maintainer that kept a replica-sized buffer between
		// the rare bases would hold more memory than the checkpoint saves.
		buf, err := appendSegmentHead(nil, &seg)
		if err != nil {
			return nil, err
		}
		return m.replica.AppendSnapshot(buf), nil
	}
	// A delta is step-sized: encode into the reused scratch, hand out an
	// exact copy (the chain and its store keep segments).
	buf, err := appendSegmentHead(m.cpBuf[:0], &seg)
	if err == nil {
		buf, err = m.replica.AppendSnapshotDelta(buf, m.dirty)
	}
	m.cpBuf = buf[:0]
	if err != nil {
		return nil, err
	}
	return bytes.Clone(buf), nil
}

// DefaultChainDepth is the default maximum number of delta segments a
// CheckpointChain accumulates before rolling over to a fresh base.
const DefaultChainDepth = 4

// ChainStore mirrors a chain's segment mutations to a durable backend
// (see internal/durable). PutBase receives every event that resets the
// chain to a single base segment covering WAL position lsn (the first
// checkpoint, a rollover, a compaction); PutDelta receives every
// appended delta segment with its FromLSN→LSN link. Calls arrive in
// mutation order on the broker's serial checkpoint path, each before
// the chain adopts its segment: a store error aborts the checkpoint or
// compaction that triggered it and leaves the chain as it was.
type ChainStore interface {
	PutBase(seg []byte, lsn uint64) error
	PutDelta(seg []byte, fromLSN, lsn uint64) error
}

// CheckpointChain owns a maintainer's incremental recovery point: one
// base segment plus the delta segments written since. It is the unit the
// broker stores per subscription and hands to RecoverChain after a
// crash. A chain is not safe for concurrent use; the broker serializes
// access under its own lock, like the maintainer itself.
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
}

// NewCheckpointChain returns an empty chain rolling over beyond maxDepth
// delta segments.
func NewCheckpointChain(maxDepth int) *CheckpointChain {
	return &CheckpointChain{maxDepth: maxDepth}
}

// RestoreChain rebuilds a chain from segments recovered off a durable
// backend: the base, the delta segments in chain order, and the WAL
// position the last segment covers through. The caller attests the
// segments form a valid FromLSN→LSN chain (recovery re-validates them
// when it folds the chain).
func RestoreChain(base []byte, deltas [][]byte, tipLSN uint64, maxDepth int) *CheckpointChain {
	return &CheckpointChain{base: base, deltas: deltas, tipLSN: tipLSN, maxDepth: maxDepth}
}

// SetStore attaches a durable mirror receiving every base and delta
// segment the chain writes from now on; nil detaches. Attach before the
// first Checkpoint (or right after RestoreChain, whose adopted segments
// the store already holds) — existing segments are not replayed into it.
func (c *CheckpointChain) SetStore(st ChainStore) { c.store = st }

// TipLSN returns the WAL position the chain covers through: everything
// at or below it may be truncated from the WAL.
func (c *CheckpointChain) TipLSN() uint64 { return c.tipLSN }

// Depth returns the current number of delta segments.
func (c *CheckpointChain) Depth() int { return len(c.deltas) }

// Checkpoint writes the maintainer's next checkpoint segment into the
// chain: an incremental delta while the chain has room, a full base
// when it is empty or already holds maxDepth delta segments. That
// second case is the rollover: the maintainer *is* the state at the
// chain tip, so the fresh base is serialized straight from its replica
// and replaces base and deltas alike — no step ever decodes, folds and
// re-encodes the segments it wrote (Compact does that, offline). The
// store, if any, takes the segment before the chain does: a segment that
// fails to encode or that the store refuses leaves the chain, its tip
// and the maintainer's dirty keys as they were. On success the chain's
// tip covers the maintainer's current WAL position, so the caller may
// truncate the WAL through TipLSN.
func (c *CheckpointChain) Checkpoint(m *Maintainer) error {
	lsn := uint64(0)
	if w := m.WAL(); w != nil {
		lsn = w.LastLSN()
	}
	rollover := c.base == nil || len(c.deltas) >= c.maxDepth
	kind, fromLSN := segmentDelta, c.tipLSN
	if rollover {
		kind, fromLSN = segmentBase, 0
	}
	seg, err := m.checkpointSegment(kind, fromLSN, lsn)
	if err != nil {
		return err
	}
	if c.store != nil {
		if rollover {
			err = c.store.PutBase(seg, lsn)
		} else {
			err = c.store.PutDelta(seg, fromLSN, lsn)
		}
		if err != nil {
			return fmt.Errorf("ivm: chain store: %w", err)
		}
	}
	// The segment owns the changes behind the dirty keys now.
	m.clearDirty()
	c.tipLSN = lsn
	if !rollover {
		c.deltas = append(c.deltas, seg)
		return nil
	}
	if c.base != nil {
		m.obs.observeCompaction()
	}
	c.base, c.deltas = seg, nil
	return nil
}

// Compact folds the delta segments into the base, yielding an
// equivalent single-segment chain. It is a pure data transformation of
// the already-written segments — the maintainer is not consulted — so
// it is safe to run at any point between checkpoints: recovery from the
// compacted chain produces byte-identical state to recovery from the
// original chain. A base the store refuses leaves the chain as it was.
// Checkpoint never calls it (a rollover gets the same base from the live
// replica for less); it serves callers that hold segments but no
// maintainer.
func (c *CheckpointChain) Compact() error {
	if len(c.deltas) == 0 {
		return nil
	}
	if c.base == nil {
		return fmt.Errorf("ivm: compacting a chain with delta segments but no base")
	}
	seg, replica, err := foldChain(c.base, c.deltas, "", false)
	if err != nil {
		return err
	}
	buf, err := appendSegmentHead(nil, seg)
	if err != nil {
		return fmt.Errorf("ivm: encoding compacted base: %w", err)
	}
	base := replica.AppendSnapshot(buf)
	if c.store != nil {
		if err := c.store.PutBase(base, c.tipLSN); err != nil {
			return fmt.Errorf("ivm: chain store: %w", err)
		}
	}
	c.base, c.deltas = base, nil
	return nil
}

// foldChain decodes a chain's base and folds its delta segments over
// it: the replica absorbs each segment's row delta, the queues are
// replaced by each segment's queue snapshot, and the returned base
// segment's lsn advances to the last segment's position. With checkNS
// the base must carry exactly the namespace wantNS, checked before any
// state is rebuilt. Every continuity violation — a missing, reordered,
// or foreign segment — fails here with a diagnosis naming the segment.
func foldChain(base []byte, deltas [][]byte, wantNS string, checkNS bool) (*segment, *storage.DB, error) {
	seg, err := decodeSegment(base)
	if err != nil {
		return nil, nil, fmt.Errorf("ivm: chain base: %w", err)
	}
	if seg.kind != segmentBase {
		return nil, nil, fmt.Errorf("ivm: chain base is a delta segment")
	}
	if checkNS && seg.ns != wantNS {
		return nil, nil, fmt.Errorf("ivm: checkpoint namespace %q, want %q", seg.ns, wantNS)
	}
	replica, err := storage.ReadSnapshot(seg.replica)
	if err != nil {
		return nil, nil, fmt.Errorf("ivm: chain base replica: %w", err)
	}
	for i, data := range deltas {
		d, err := decodeSegment(data)
		if err != nil {
			return nil, nil, fmt.Errorf("ivm: delta segment %d: %w", i, err)
		}
		if d.kind != segmentDelta {
			return nil, nil, fmt.Errorf("ivm: delta segment %d is a base segment", i)
		}
		if d.ns != seg.ns {
			return nil, nil, fmt.Errorf("ivm: delta segment %d namespace %q, want %q", i, d.ns, seg.ns)
		}
		if d.fromLSN != seg.lsn {
			return nil, nil, fmt.Errorf("ivm: delta chain gap at segment %d: extends lsn %d but chain covers %d (truncated or reordered chain)", i, d.fromLSN, seg.lsn)
		}
		if err := storage.ApplySnapshotDelta(replica, d.replica); err != nil {
			return nil, nil, fmt.Errorf("ivm: applying delta segment %d: %w", i, err)
		}
		seg.queues, seg.lsn = d.queues, d.lsn
	}
	seg.replica = nil
	return seg, replica, nil
}
