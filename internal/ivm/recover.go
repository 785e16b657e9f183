package ivm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"time"

	"abivm/internal/storage"
)

// checkpointVersion guards against reading checkpoints written by an
// incompatible layout.
const checkpointVersion = 1

// checkpointDTO is the on-stream checkpoint format: the replica database
// (the exact state the view reflects), the pending delta queues, and the
// WAL position the checkpoint covers. The view content itself is not
// stored — it is a pure function of the replicas (the delta query over
// them), so Recover recomputes it, keeping the format small and immune
// to view-state layout changes.
type checkpointDTO struct {
	Version int
	LSN     uint64
	Replica []byte
	Queues  map[string][]Mod
	// Namespace identifies whose state this checkpoint is (see
	// Maintainer.SetNamespace); "" for un-namespaced maintainers. Old
	// checkpoints decode with the zero value, so the field is
	// version-compatible.
	Namespace string
}

// Checkpoint serializes the maintainer's durable state to w: replica
// snapshot, delta queues, and the current WAL position. Everything the
// checkpoint covers (LSN and below) may be truncated from the WAL
// afterwards; Recover replays only records past the checkpoint.
func (m *Maintainer) Checkpoint(w io.Writer) error {
	if m.obs == nil {
		return m.checkpoint(w)
	}
	cw := &countingWriter{w: w}
	//lint:ignore nondet checkpoint latency feeds metrics only, never checkpoint content
	start := time.Now()
	err := m.checkpoint(cw)
	if err == nil {
		//lint:ignore nondet measurement of the checkpoint, not part of it
		m.obs.observeCheckpoint(time.Since(start), cw.n)
	}
	return err
}

// countingWriter measures checkpoint size without buffering it.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

func (m *Maintainer) checkpoint(w io.Writer) error {
	// A full snapshot gets a buffer of its own rather than cpBuf: that
	// one outlives the call, and a maintainer that kept a replica-sized
	// buffer (regrown whenever the replica outgrew it) between the rare
	// full checkpoints would hold more memory than the checkpoint saves.
	// The queue copies still come from the modPool free list; the encoder
	// consumes them before this function returns.
	var replica bytes.Buffer
	if err := m.replica.WriteSnapshot(&replica); err != nil {
		return fmt.Errorf("ivm: checkpoint replica snapshot: %w", err)
	}
	dto := checkpointDTO{
		Version:   checkpointVersion,
		Replica:   replica.Bytes(),
		Queues:    m.takeQueues(),
		Namespace: m.ns,
	}
	defer m.releaseQueues(dto.Queues)
	if m.wal != nil {
		dto.LSN = m.wal.LastLSN()
	}
	if err := gob.NewEncoder(w).Encode(dto); err != nil {
		return fmt.Errorf("ivm: encoding checkpoint: %w", err)
	}
	return nil
}

// Recover rebuilds a crashed maintainer from its last checkpoint and the
// write-ahead log: load the replica snapshot and queues, recompute the
// view content from the replicas, then redo the WAL suffix — arrivals
// re-enter the queues (their live-table effects already happened before
// the crash) and drains re-execute, so the recovered maintainer matches
// the crashed one exactly: same replicas, same queues, same view. The
// WAL is attached to the returned maintainer; replayed work is not
// re-logged.
func Recover(live *storage.DB, query string, cp io.Reader, wal *WAL) (*Maintainer, error) {
	return recoverMaintainer(live, query, "", false, cp, nil, wal, nil)
}

// RecoverNamespaced is Recover with a namespace check: the checkpoint
// must have been written by a maintainer whose namespace is exactly ns,
// otherwise recovery fails before any state is rebuilt. A sharded broker
// uses this to guarantee each shard restores only its own subscriptions'
// recovery points ("<shard>/<subscription>" namespaces).
func RecoverNamespaced(live *storage.DB, query, ns string, cp io.Reader, wal *WAL, ms *Metrics) (*Maintainer, error) {
	return recoverMaintainer(live, query, ns, true, cp, nil, wal, ms)
}

// RecoverWithMetrics is Recover with an instrumentation bundle: a
// successful recovery is counted, its replayed WAL suffix length is
// observed, and ms is attached to the recovered maintainer so its
// post-recovery drains keep reporting to the same registry. A nil ms is
// exactly Recover.
func RecoverWithMetrics(live *storage.DB, query string, cp io.Reader, wal *WAL, ms *Metrics) (*Maintainer, error) {
	return recoverMaintainer(live, query, "", false, cp, nil, wal, ms)
}

// recoverMaintainer is the shared implementation; checkNS enables the namespace
// validation (wantNS may legitimately be "" for a namespaced caller that
// never named its maintainer). A non-empty deltas is an incremental
// checkpoint chain: each segment is validated (version, namespace, LSN
// continuity) and folded into the base state before the view recompute.
func recoverMaintainer(live *storage.DB, query, wantNS string, checkNS bool, cp io.Reader, deltas [][]byte, wal *WAL, ms *Metrics) (*Maintainer, error) {
	var dto checkpointDTO
	if err := gob.NewDecoder(cp).Decode(&dto); err != nil {
		return nil, fmt.Errorf("ivm: decoding checkpoint: %w", err)
	}
	if dto.Version != checkpointVersion {
		return nil, fmt.Errorf("ivm: checkpoint version %d, want %d", dto.Version, checkpointVersion)
	}
	if checkNS && dto.Namespace != wantNS {
		return nil, fmt.Errorf("ivm: checkpoint namespace %q, want %q", dto.Namespace, wantNS)
	}
	m, err := newSkeleton(live, query)
	if err != nil {
		return nil, err
	}
	replica, err := storage.ReadSnapshot(bytes.NewReader(dto.Replica))
	if err != nil {
		return nil, fmt.Errorf("ivm: checkpoint replica: %w", err)
	}
	if err := foldChainInto(&dto, replica, deltas); err != nil {
		return nil, err
	}
	m.setReplica(replica)
	for _, alias := range m.aliases {
		if _, err := replica.Table(m.tables[alias]); err != nil {
			return nil, fmt.Errorf("ivm: checkpoint is missing replica of %q: %w", alias, err)
		}
	}
	// The view content is the delta query over the replicas — exactly the
	// state the checkpoint captured.
	if err := m.initialize(); err != nil {
		return nil, fmt.Errorf("ivm: recomputing view from checkpoint: %w", err)
	}
	// Restore queues in sorted alias order so a checkpoint with several
	// unknown aliases always fails on the same one.
	aliases := make([]string, 0, len(dto.Queues))
	for alias := range dto.Queues {
		aliases = append(aliases, alias)
	}
	sort.Strings(aliases)
	for _, alias := range aliases {
		if _, ok := m.tables[alias]; !ok {
			return nil, fmt.Errorf("ivm: checkpoint queue for unknown alias %q", alias)
		}
		m.deltas[alias] = append([]Mod(nil), dto.Queues[alias]...)
	}
	// Redo the log suffix through the zero-copy iterator — recovery
	// reads the records in place instead of copying the whole suffix.
	// The WAL (and injector) stay detached during replay: recovery must
	// not re-log records or pick up new faults.
	replayed := 0
	if wal != nil {
		if err := wal.Replay(dto.LSN, func(rec WALRecord) error {
			replayed++
			switch rec.Kind {
			case WALArrival:
				if _, ok := m.tables[rec.Mod.Alias]; !ok {
					return fmt.Errorf("ivm: wal arrival for unknown alias %q", rec.Mod.Alias)
				}
				m.deltas[rec.Mod.Alias] = append(m.deltas[rec.Mod.Alias], rec.Mod)
				return nil
			case WALDrain:
				if err := m.ProcessBatch(rec.Alias, rec.K); err != nil {
					return fmt.Errorf("ivm: replaying drain lsn=%d %s/%d: %w", rec.LSN, rec.Alias, rec.K, err)
				}
				return nil
			default:
				return fmt.Errorf("ivm: unknown wal record kind %d at lsn %d", rec.Kind, rec.LSN)
			}
		}); err != nil {
			return nil, err
		}
	}
	m.wal = wal
	m.obs = ms
	m.ns = dto.Namespace
	ms.observeRecovery(replayed)
	// Replay work is recovery overhead, not maintenance cost.
	*m.stats = storage.Stats{}
	return m, nil
}
