package ivm

import (
	"fmt"
	"sort"
	"sync"
)

// The write-ahead log and checkpoint pair give a Maintainer crash
// durability: every accepted arrival and every committed drain is
// recorded, so a maintainer that loses its in-memory state (replica,
// delta queues, view) is rebuilt exactly by loading the last checkpoint
// and replaying the log suffix — a classic redo log. Replaying drains
// (not just arrivals) is what makes recovery *byte-identical*: the
// recovered maintainer has processed precisely the batches the crashed
// one had, so pending vectors, refresh costs, and view contents all
// match the fault-free execution.

// WALKind distinguishes log record types.
type WALKind uint8

// WAL record kinds.
const (
	// WALArrival records one accepted base-table modification.
	WALArrival WALKind = iota
	// WALDrain records one committed ProcessBatch(Alias, K).
	WALDrain
)

// WALRecord is one redo-log entry. Arrival records carry Mod (whose
// Alias addresses the maintainer's view); drain records carry Alias/K.
type WALRecord struct {
	LSN   uint64
	Kind  WALKind
	Mod   Mod
	Alias string
	K     int
}

// WALSink mirrors the log's mutations to a durable backend (see
// internal/durable). AppendRecord receives every record in LSN order
// and TruncateRecords every truncation, both invoked under the WAL's
// lock and before the in-memory log changes, so a sink observes exactly
// the in-memory mutation sequence. A sink error surfaces to the WAL
// caller and the in-memory log stays as it was: a refused record takes
// no LSN, and the caller may retry.
type WALSink interface {
	AppendRecord(rec WALRecord) error
	TruncateRecords(lsn uint64) error
}

// WAL is an in-memory, append-only redo log with monotonically
// increasing LSNs starting at 1. It survives a (simulated) maintainer
// crash because it is owned by the broker, not the maintainer; a
// persistent deployment backs it with a file through SetSink (see
// internal/durable), which the explicit LSN/truncation API is shaped
// for. WAL is safe for concurrent use.
type WAL struct {
	mu   sync.Mutex
	recs []WALRecord
	// period is the number of records the last emptying truncation
	// dropped: the capacity the next backing array starts at.
	period int
	next   uint64
	sink   WALSink
}

// NewWAL returns an empty log.
func NewWAL() *WAL { return &WAL{next: 1} }

// RestoreWAL rebuilds a log from records recovered off a durable
// backend: recs (strictly LSN-ascending; they become the retained
// suffix) and next, the LSN the rebuilt log assigns first. next must
// exceed the last record's LSN — a durable recovery that restarted LSN
// assignment inside the retained suffix would corrupt the write-once
// record-cell invariant Replay relies on.
func RestoreWAL(recs []WALRecord, next uint64) (*WAL, error) {
	if next < 1 {
		return nil, fmt.Errorf("ivm: restoring wal with next lsn %d < 1", next)
	}
	for i, rec := range recs {
		if i > 0 && rec.LSN <= recs[i-1].LSN {
			return nil, fmt.Errorf("ivm: restoring wal with non-ascending lsn %d after %d", rec.LSN, recs[i-1].LSN)
		}
	}
	if n := len(recs); n > 0 && recs[n-1].LSN >= next {
		return nil, fmt.Errorf("ivm: restoring wal with next lsn %d inside retained suffix (last record %d)", next, recs[n-1].LSN)
	}
	return &WAL{recs: append([]WALRecord(nil), recs...), next: next}, nil
}

// SetSink attaches a durable mirror receiving every append and
// truncation; nil detaches. Attach before the records the sink should
// see — existing retained records are not replayed into it.
func (w *WAL) SetSink(sink WALSink) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sink = sink
}

// Append assigns the next LSN to rec and appends it, returning the LSN.
// Without a sink the in-memory append itself is the durability point;
// with a sink attached the record is handed to the durable mirror first
// (which buffers it until its explicit sync point — see
// internal/durable), and a record the sink refuses is not appended.
func (w *WAL) Append(rec WALRecord) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	rec.LSN = w.next
	if w.sink != nil {
		if err := w.sink.AppendRecord(rec); err != nil {
			return 0, fmt.Errorf("ivm: wal sink append lsn=%d: %w", rec.LSN, err)
		}
	}
	w.next++
	if w.recs == nil {
		w.recs = make([]WALRecord, 0, w.period)
	}
	w.recs = append(w.recs, rec)
	return rec.LSN, nil
}

// LastLSN returns the LSN of the most recently appended record, or 0 for
// an empty (or fully truncated) log history.
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next - 1
}

// suffixFrom returns the index of the first retained record with
// LSN > lsn. Records are LSN-sorted (Append assigns monotonically, and
// truncation only drops prefixes), so this is a binary search, not a
// scan. Callers must hold w.mu.
func (w *WAL) suffixFrom(lsn uint64) int {
	return sort.Search(len(w.recs), func(i int) bool { return w.recs[i].LSN > lsn })
}

// Replay invokes fn on every record with LSN > lsn, in order, without
// copying the suffix. The suffix slice is captured under the lock and
// iterated outside it, which is safe because record cells are
// write-once: Append only extends the log and TruncateThrough only
// advances its start, so a captured suffix is immutable even while the
// log keeps moving. Replay stops at fn's first error and returns it.
func (w *WAL) Replay(lsn uint64, fn func(WALRecord) error) error {
	w.mu.Lock()
	i := w.suffixFrom(lsn)
	recs := w.recs[i:len(w.recs):len(w.recs)]
	w.mu.Unlock()
	for _, rec := range recs {
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// TruncateThrough drops every record with LSN <= lsn; a checkpoint at
// lsn makes the prefix unnecessary for recovery. LSN assignment is
// unaffected. Truncation re-slices instead of copying down — O(1), and
// it preserves the write-once record cells that make Replay's captured
// suffixes immutable; the abandoned prefix is reclaimed when the backing
// array next grows, or at once when the log empties. An emptied log's
// next append starts a fresh array as large as the records just dropped
// — a checkpoint period's worth, so the period appends without regrowing
// — and never goes back onto the old one, which a Replay may still be
// reading. With a sink attached the truncation is mirrored to the durable
// backend first (which may retain a longer suffix for its own fallback
// ladder); a sink error is returned with the in-memory log untouched.
func (w *WAL) TruncateThrough(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sink != nil {
		if err := w.sink.TruncateRecords(lsn); err != nil {
			return fmt.Errorf("ivm: wal sink truncate lsn=%d: %w", lsn, err)
		}
	}
	i := w.suffixFrom(lsn)
	if i == len(w.recs) {
		if i > 0 {
			w.period = i
		}
		w.recs = nil
	} else {
		w.recs = w.recs[i:]
	}
	return nil
}

// Len returns the number of retained records.
func (w *WAL) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.recs)
}
