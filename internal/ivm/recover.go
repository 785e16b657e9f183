package ivm

import (
	"fmt"

	"abivm/internal/storage"
)

// RecoverChain rebuilds a crashed maintainer from its checkpoint chain
// and the write-ahead log: load the base's replica snapshot, fold the
// delta segments, recompute the view content from the replicas, restore
// the queues, then redo the WAL suffix past the chain's tip — arrivals
// re-enter the queues (their live-table effects already happened before
// the crash) and drains re-execute, so the recovered maintainer matches
// the crashed one exactly: same replicas, same queues, same view. The
// WAL is attached to the returned maintainer; replayed work is not
// re-logged. Whatever namespace the chain carries is adopted unchecked.
func RecoverChain(live *storage.DB, query string, chain *CheckpointChain, wal *WAL) (*Maintainer, error) {
	return recoverChain(live, query, "", false, chain, wal, nil)
}

// RecoverChainNamespaced is RecoverChain with a namespace check and an
// instrumentation bundle. The chain must have been written by a
// maintainer whose namespace is exactly ns, otherwise recovery fails
// before any state is rebuilt — a sharded broker uses this to guarantee
// each shard restores only its own subscriptions' recovery points
// ("<shard>/<subscription>" namespaces). A successful recovery is
// counted in ms, its replayed WAL suffix length observed, and ms is
// attached to the recovered maintainer; nil ms measures nothing.
func RecoverChainNamespaced(live *storage.DB, query, ns string, chain *CheckpointChain, wal *WAL, ms *Metrics) (*Maintainer, error) {
	return recoverChain(live, query, ns, true, chain, wal, ms)
}

// recoverChain is the one implementation; checkNS enables the namespace
// validation (wantNS may legitimately be "" for a namespaced caller that
// never named its maintainer).
func recoverChain(live *storage.DB, query, wantNS string, checkNS bool, chain *CheckpointChain, wal *WAL, ms *Metrics) (*Maintainer, error) {
	if chain == nil || chain.base == nil {
		return nil, fmt.Errorf("ivm: recovering from a checkpoint chain with no base segment")
	}
	seg, replica, err := foldChain(chain.base, chain.deltas, wantNS, checkNS)
	if err != nil {
		return nil, err
	}
	m, err := newSkeleton(live, query)
	if err != nil {
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
	for _, q := range seg.queues {
		if _, ok := m.tables[q.alias]; !ok {
			return nil, fmt.Errorf("ivm: checkpoint queue for unknown alias %q", q.alias)
		}
		m.deltas[q.alias] = q.mods
	}
	// Redo the log suffix through the zero-copy iterator — recovery
	// reads the records in place instead of copying the whole suffix.
	// The WAL (and injector) stay detached during replay: recovery must
	// not re-log records or pick up new faults.
	replayed := 0
	if wal != nil {
		if err := wal.Replay(seg.lsn, func(rec WALRecord) error {
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
	m.ns = seg.ns
	ms.observeRecovery(replayed)
	// Replay work is recovery overhead, not maintenance cost.
	*m.stats = storage.Stats{}
	return m, nil
}
