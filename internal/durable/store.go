// Package durable is the crash-consistent on-disk backend for the ivm
// redo log and checkpoint chain: checksummed WAL segment files with
// buffered appends and an explicit sync point, checkpoint base/delta
// segments written via temp-file + atomic rename, and a manifest tying
// the chain together. Recovery (see recover.go) validates every artifact
// before decoding it and degrades down a documented ladder — truncate
// the WAL at the first corrupt frame, drop corrupt delta segments, fall
// back to the base, and as the last rung reset the store for its caller
// to rebuild from the live tables — quarantining damaged artifacts
// instead of failing the maintainer. The
// byte-level damage it must survive is modeled by fault.Media, which
// wraps the FS with seeded torn writes, bit flips, truncations, dropped
// files, and skipped renames.
package durable

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"abivm/internal/fault"
	"abivm/internal/ivm"
)

// walName returns the segment file name for a segment whose first record
// has the given LSN. The fixed-width hex form makes lexical file-name
// order equal LSN order, so a sorted directory listing is already a
// scan plan.
func walName(first uint64) string {
	return fmt.Sprintf("wal-%016x.log", first)
}

// parseWALName extracts the first-record LSN from a WAL segment name;
// ok is false for names not produced by walName.
func parseWALName(name string) (uint64, bool) {
	const prefix, suffix = "wal-", ".log"
	if len(name) != len(prefix)+16+len(suffix) ||
		!strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	first, err := strconv.ParseUint(name[len(prefix):len(prefix)+16], 16, 64)
	if err != nil {
		return 0, false
	}
	return first, true
}

// baseName / deltaName name checkpoint segments by generation (and, for
// deltas, chain position). Generation numbers only grow, so a stale
// segment surviving a failed sweep can never be confused with a current
// one.
func baseSegName(gen uint64) string {
	return fmt.Sprintf("ckpt-%016x-base.seg", gen)
}

func deltaSegName(gen uint64, idx int) string {
	return fmt.Sprintf("ckpt-%016x-d%03d.seg", gen, idx)
}

// quarantinePrefix is the directory corrupt artifacts are moved into.
const quarantinePrefix = "quarantine/"

// tmpSuffix marks in-flight atomic writes; recovery and sweeps treat
// leftovers as garbage.
const tmpSuffix = ".tmp"

// walSeg is the store's in-memory record of one on-disk WAL segment.
type walSeg struct {
	name  string
	first uint64
}

// Stats is a snapshot of a store's durability counters.
type Stats struct {
	// Syncs and SyncBytes count explicit WAL sync points and the frame
	// bytes they flushed.
	Syncs     int
	SyncBytes int
	// Corruptions counts corrupt or missing artifacts detected during
	// recovery, Quarantined the artifacts moved aside, and Fallbacks the
	// recoveries that degraded to a full refresh from the live tables.
	Corruptions int
	Quarantined int
	Fallbacks   int
}

// Add accumulates another snapshot into s, for aggregating counters
// across a broker's stores.
func (s *Stats) Add(o Stats) {
	s.Syncs += o.Syncs
	s.SyncBytes += o.SyncBytes
	s.Corruptions += o.Corruptions
	s.Quarantined += o.Quarantined
	s.Fallbacks += o.Fallbacks
}

// Store is the durable backend for one maintainer: it implements
// ivm.WALSink (mirroring the redo log into segment files) and
// ivm.ChainStore (mirroring checkpoint segments plus the manifest).
// Appends are buffered in memory; Sync is the durability point, called
// by the broker at its step boundary and implicitly before every
// truncation. A Store survives the (simulated) crash of its maintainer —
// like the in-memory WAL it backs, it is owned by the broker — and
// Recover rebuilds maintainer, WAL, and chain from the file state — or,
// when the files are past repair, resets itself for a rebuild.
//
// Store is safe for concurrent use, but recovery exactness relies on the
// broker's sequencing: at every crash point the last Sync must have
// covered every append, which the broker guarantees by syncing at step
// entry before it polls for crashes.
type Store struct {
	mu sync.Mutex
	fs FS
	ns string
	ms *ivm.Metrics

	// WAL state: buffered frames not yet on disk (buf, starting at LSN
	// bufFirst), the on-disk segments in LSN order, and three
	// watermarks — lastLSN (last buffered append), ackedLSN (last append
	// covered by a successful Sync: the durability high-water mark that
	// lets recovery detect a torn tail cut exactly on a frame boundary),
	// and baseLSN (the manifest base position, the retention floor that
	// keeps enough log around to replay over a corrupt delta segment).
	buf      []byte
	bufFirst uint64
	rotate   bool
	segs     []walSeg
	lastLSN  uint64
	ackedLSN uint64
	baseLSN  uint64

	// Checkpoint state: the current manifest and its generation counter
	// (monotonic across chain resets and fallbacks).
	man *manifest
	gen uint64

	// qseq uniquifies quarantine names across recoveries.
	qseq  int
	stats Stats
}

// NewStore returns a store for namespace ns over fsys. It performs no
// I/O: a subscription's first checkpoint initializes the directory, and
// Recover adopts whatever state a previous incarnation left behind.
func NewStore(fsys FS, ns string) (*Store, error) {
	if fsys == nil {
		return nil, fmt.Errorf("durable: nil FS")
	}
	return &Store{fs: fsys, ns: ns}, nil
}

// Namespace returns the maintainer namespace the store serves.
//
//lint:ignore mutexheld ns is set at construction and never reassigned
func (st *Store) Namespace() string { return st.ns }

// Media returns the byte-level fault injector sitting between the store
// and its file layer, or nil when the store writes through unfaulted —
// harnesses use it to aggregate injected-damage counts after a run.
func (st *Store) Media() *fault.Media {
	//lint:ignore mutexheld fs is set at construction and never reassigned
	if m, ok := st.fs.(*fault.Media); ok {
		return m
	}
	return nil
}

// SetMetrics attaches the maintainer instrumentation bundle the store
// reports syncs and recovery corruption through; nil detaches.
func (st *Store) SetMetrics(ms *ivm.Metrics) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.ms = ms
}

// Stats returns a snapshot of the durability counters.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// AppendRecord implements ivm.WALSink: the record is framed into the
// in-memory buffer and becomes durable at the next Sync. LSNs must
// extend the last buffered append contiguously — the WAL assigns them
// that way, and the scanner's continuity check depends on it.
func (st *Store) AppendRecord(rec ivm.WALRecord) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.lastLSN != 0 && rec.LSN != st.lastLSN+1 {
		return fmt.Errorf("durable: append lsn %d does not extend %d", rec.LSN, st.lastLSN)
	}
	buf, err := appendFrame(st.buf, rec)
	if err != nil {
		return fmt.Errorf("durable: framing wal record lsn=%d: %w", rec.LSN, err)
	}
	if st.bufFirst == 0 {
		st.bufFirst = rec.LSN
	}
	st.buf = buf
	st.lastLSN = rec.LSN
	return nil
}

// Sync flushes the buffered frames to the current WAL segment (opening a
// new one after a rotation) — the explicit durability point. On success
// every appended record is on disk; on failure the buffer is retained,
// so a later Sync retries the same bytes.
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.syncLocked()
}

func (st *Store) syncLocked() error {
	if len(st.buf) == 0 {
		return nil
	}
	if st.rotate || len(st.segs) == 0 {
		name := walName(st.bufFirst)
		if err := st.fs.AppendFile(name, st.buf); err != nil {
			return fmt.Errorf("durable: syncing wal segment %s: %w", name, err)
		}
		st.segs = append(st.segs, walSeg{name: name, first: st.bufFirst})
	} else {
		name := st.segs[len(st.segs)-1].name
		if err := st.fs.AppendFile(name, st.buf); err != nil {
			return fmt.Errorf("durable: syncing wal segment %s: %w", name, err)
		}
	}
	st.rotate = false
	st.ackedLSN = st.lastLSN
	st.stats.Syncs++
	st.stats.SyncBytes += len(st.buf)
	st.ms.ObserveWALSync(len(st.buf))
	st.buf = st.buf[:0]
	st.bufFirst = 0
	return nil
}

// TruncateRecords implements ivm.WALSink: the log through lsn is no
// longer needed for tip recovery. The store first syncs (a truncation
// follows a checkpoint, a natural durability point), then rotates so the
// next sync opens a fresh segment, then deletes the segments fully
// covered by the retention floor. The floor is min(lsn, manifest base
// LSN), not lsn itself: keeping the log back to the *base* is what lets
// recovery replay over a corrupt delta segment instead of falling back
// to a full refresh.
func (st *Store) TruncateRecords(lsn uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.syncLocked(); err != nil {
		return err
	}
	st.rotate = true
	floor := lsn
	if st.man != nil && st.baseLSN < floor {
		floor = st.baseLSN
	}
	// Deleting retained log is never required for correctness, so a
	// failed Remove just ends this round of reclamation — the segment
	// stays on disk and on the books, and the next truncation retries.
	for len(st.segs) > 1 && st.segs[1].first <= floor+1 {
		if err := st.fs.Remove(st.segs[0].name); err != nil {
			return nil
		}
		st.segs = st.segs[1:]
	}
	if len(st.segs) == 1 && st.ackedLSN <= floor {
		if err := st.fs.Remove(st.segs[0].name); err != nil {
			return nil
		}
		st.segs = nil
	}
	return nil
}

// writeAtomic lands data at name via temp-file + rename: readers (and
// recovery) see either the old content or the complete new content,
// never a partial write. The crash between the two steps is exactly the
// window fault.Media's skip-rename models.
func (st *Store) writeAtomic(name string, data []byte) error {
	tmp := name + tmpSuffix
	if err := st.fs.WriteFile(tmp, data); err != nil {
		return err
	}
	return st.fs.Rename(tmp, name)
}

// PutBase implements ivm.ChainStore: the chain reset to a single base
// segment covering lsn. The base lands first (atomically, under a fresh
// generation name), then the manifest flips to it, then superseded
// artifacts are swept — every crash point leaves a manifest whose
// references exist.
func (st *Store) PutBase(seg []byte, lsn uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.gen++
	name := baseSegName(st.gen)
	if err := st.writeAtomic(name, seg); err != nil {
		return fmt.Errorf("durable: writing base segment %s: %w", name, err)
	}
	man := &manifest{
		Namespace: st.ns,
		Gen:       st.gen,
		BaseName:  name,
		BaseCRC:   crcOf(seg),
		BaseLSN:   lsn,
	}
	if err := st.writeManifestLocked(man); err != nil {
		return err
	}
	st.man = man
	st.baseLSN = lsn
	st.sweepLocked()
	return nil
}

// PutDelta implements ivm.ChainStore: one delta segment appended to the
// chain. The segment lands atomically, then the manifest grows its
// reference — a crash in between leaves an unreferenced segment for the
// next sweep, never a manifest pointing at nothing.
func (st *Store) PutDelta(seg []byte, fromLSN, lsn uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.man == nil {
		return fmt.Errorf("durable: delta segment before any base")
	}
	name := deltaSegName(st.man.Gen, len(st.man.Deltas))
	if err := st.writeAtomic(name, seg); err != nil {
		return fmt.Errorf("durable: writing delta segment %s: %w", name, err)
	}
	man := *st.man
	man.Deltas = append(append([]segmentRef(nil), st.man.Deltas...),
		segmentRef{Name: name, CRC: crcOf(seg), FromLSN: fromLSN, LSN: lsn})
	if err := st.writeManifestLocked(&man); err != nil {
		return err
	}
	st.man = &man
	return nil
}

// writeManifestLocked lands man atomically at the well-known name.
func (st *Store) writeManifestLocked(man *manifest) error {
	if err := st.writeAtomic(manifestName, encodeManifest(man)); err != nil {
		return fmt.Errorf("durable: writing manifest: %w", err)
	}
	return nil
}

// sweepLocked removes files no longer reachable from the current
// manifest or WAL bookkeeping: superseded checkpoint generations,
// truncated WAL segments a failed Remove left behind, and leftover temp
// files. Quarantined artifacts are kept — they are the forensic record.
// Sweeping is best-effort: any error just ends the sweep; stale files
// are harmless because generation and LSN naming keeps them from ever
// shadowing a live artifact.
func (st *Store) sweepLocked() {
	names, err := st.fs.List()
	if err != nil {
		return
	}
	keep := make(map[string]bool, 2+len(st.segs))
	keep[manifestName] = true
	if st.man != nil {
		keep[st.man.BaseName] = true
		for _, ref := range st.man.Deltas {
			keep[ref.Name] = true
		}
	}
	for _, seg := range st.segs {
		keep[seg.name] = true
	}
	for _, name := range names {
		if keep[name] || strings.HasPrefix(name, quarantinePrefix) {
			continue
		}
		if err := st.fs.Remove(name); err != nil {
			return
		}
	}
}
