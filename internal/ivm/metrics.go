package ivm

import (
	"time"

	"abivm/internal/obs"
)

// Metrics is the maintainer's instrumentation bundle: drain latency and
// throughput, redo-log activity, checkpoint cost, and recovery replay
// length. Attach one bundle per registry via Maintainer.SetMetrics /
// WAL.SetMetrics; several maintainers may share a bundle (every
// instrument is atomic), which is exactly what the broker does — the
// counters and histograms then aggregate across subscriptions. That is
// why the bundle holds no gauge: a gauge Set from one subscription's
// state would be overwritten by the next subscription's, and mean
// nothing (per-subscription levels are the broker's `sub`-labeled
// series). A nil *Metrics is the
// detached state: every recording helper no-ops and the hot paths skip
// all measurement work, including time.Now calls.
type Metrics struct {
	// Drains counts ProcessBatch attempts with k > 0; DrainFailures the
	// attempts that returned an error (injected or real).
	Drains        *obs.Counter
	DrainFailures *obs.Counter
	// DrainLatency observes the wall-clock seconds of committed drains.
	DrainLatency *obs.Histogram
	// DrainedMods counts modifications folded into views by committed
	// drains — the runtime's integral of the paper's batch sizes k.
	DrainedMods *obs.Counter

	// WALAppends counts redo-log appends — drain commits, and on the
	// per-view engine arrivals too (the shared graph records an arrival in
	// its ingest log, not in any view's redo log); the in-memory WAL has no
	// separate fsync, so an append is also the durability point.
	WALAppends     *obs.Counter
	WALTruncations *obs.Counter

	// Checkpoints counts successful Checkpoint calls; bytes and seconds
	// observe each checkpoint's size and duration.
	Checkpoints       *obs.Counter
	CheckpointBytes   *obs.Histogram
	CheckpointSeconds *obs.Histogram

	// Incremental checkpointing: CheckpointDeltas counts successful
	// delta-segment writes (full-segment writes stay in Checkpoints) and
	// CheckpointDeltaBytes observes each segment's size — the pair whose
	// ratio to Checkpoints/CheckpointBytes shows what incremental
	// checkpointing saves. CheckpointCompactions counts the times a
	// chain's deltas were replaced by a fresh base — rollovers on the
	// checkpoint path plus explicit Compact folds. Delta durations fold
	// into CheckpointSeconds alongside full checkpoints.
	CheckpointDeltas      *obs.Counter
	CheckpointDeltaBytes  *obs.Histogram
	CheckpointCompactions *obs.Counter

	// Recoveries counts successful Recover calls; RecoveryReplay
	// observes the WAL suffix length each recovery replayed.
	Recoveries     *obs.Counter
	RecoveryReplay *obs.Histogram

	// Disk durability (see internal/durable): WALSyncs counts explicit
	// file-backed sync points and WALSyncBytes the frame bytes they
	// flushed — the pair whose ratio is the effective group-commit batch
	// size. The in-memory WAL never touches them.
	WALSyncs     *obs.Counter
	WALSyncBytes *obs.Counter

	// Corruption-hardened recovery: RecoveryCorruptions counts corrupt
	// or missing on-disk artifacts detected while rebuilding a
	// maintainer, RecoveryQuarantines the artifacts moved into the
	// store's quarantine directory, and RecoveryFallbacks the recoveries
	// that had to degrade to a full refresh from the live tables because
	// no exact recovery point survived. A fallback is loud by design:
	// the maintainer keeps serving, but the operator sees the ladder rung
	// it landed on.
	RecoveryCorruptions *obs.Counter
	RecoveryQuarantines *obs.Counter
	RecoveryFallbacks   *obs.Counter
}

// NewMetrics registers the maintainer instruments on r and returns the
// bundle (nil registry yields nil, the detached bundle).
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Drains:         r.Counter("ivm_drains_total"),
		DrainFailures:  r.Counter("ivm_drain_failures_total"),
		DrainLatency:   r.Histogram("ivm_drain_latency_seconds", obs.LatencyBuckets()),
		DrainedMods:    r.Counter("ivm_drained_mods_total"),
		WALAppends:     r.Counter("ivm_wal_appends_total"),
		WALTruncations: r.Counter("ivm_wal_truncations_total"),
		Checkpoints:    r.Counter("ivm_checkpoints_total"),
		CheckpointBytes: r.Histogram("ivm_checkpoint_bytes",
			obs.SizeBuckets()),
		CheckpointSeconds: r.Histogram("ivm_checkpoint_seconds", obs.LatencyBuckets()),
		CheckpointDeltas:  r.Counter("ivm_checkpoint_deltas_total"),
		CheckpointDeltaBytes: r.Histogram("ivm_checkpoint_delta_bytes",
			obs.SizeBuckets()),
		CheckpointCompactions: r.Counter("ivm_checkpoint_compactions_total"),
		Recoveries:            r.Counter("ivm_recoveries_total"),
		RecoveryReplay: r.Histogram("ivm_recovery_replayed_records",
			[]float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}),
		WALSyncs:            r.Counter("ivm_wal_sync_total"),
		WALSyncBytes:        r.Counter("ivm_wal_sync_bytes_total"),
		RecoveryCorruptions: r.Counter("ivm_recovery_corruption_total"),
		RecoveryQuarantines: r.Counter("ivm_recovery_corruption_quarantined_total"),
		RecoveryFallbacks:   r.Counter("ivm_recovery_corruption_fallbacks_total"),
	}
}

// ObserveWALSync records one file-backed WAL sync flushing n frame
// bytes. It is exported for the durable layer, which owns the sync point
// but reports through the maintainer bundle.
func (ms *Metrics) ObserveWALSync(n int) {
	if ms == nil {
		return
	}
	ms.WALSyncs.Inc()
	ms.WALSyncBytes.Add(int64(n))
}

// ObserveRecoveryCorruption records detected corrupt artifacts and how
// many of them were quarantined during one disk recovery.
func (ms *Metrics) ObserveRecoveryCorruption(detected, quarantined int) {
	if ms == nil {
		return
	}
	ms.RecoveryCorruptions.Add(int64(detected))
	ms.RecoveryQuarantines.Add(int64(quarantined))
}

// ObserveRecoveryFallback records one recovery that degraded to a full
// refresh from the live tables.
func (ms *Metrics) ObserveRecoveryFallback() {
	if ms == nil {
		return
	}
	ms.RecoveryFallbacks.Inc()
}

// ObserveDrain records one drain (ProcessBatch) outcome on behalf of an
// external view runtime (internal/dataflow), which owns its drain path
// but reports through the maintainer bundle so classic and shared modes
// share one set of series.
func (ms *Metrics) ObserveDrain(elapsed time.Duration, k int, err error) {
	ms.observeDrain(elapsed, k, err)
}

// ObserveCheckpoint records one successful full checkpoint taken by an
// external view runtime.
func (ms *Metrics) ObserveCheckpoint(elapsed time.Duration, bytes int) {
	ms.observeCheckpoint(segmentBase, elapsed, bytes)
}

// ObserveRecovery records one successful recovery by an external view
// runtime with the replayed record count.
func (ms *Metrics) ObserveRecovery(replayed int) {
	ms.observeRecovery(replayed)
}

// observeDrain records one ProcessBatch outcome.
func (ms *Metrics) observeDrain(elapsed time.Duration, k int, err error) {
	if ms == nil {
		return
	}
	ms.Drains.Inc()
	if err != nil {
		ms.DrainFailures.Inc()
		return
	}
	ms.DrainLatency.Observe(elapsed.Seconds())
	ms.DrainedMods.Add(int64(k))
}

// observeCheckpoint records one successfully written checkpoint
// segment under its kind's series.
func (ms *Metrics) observeCheckpoint(kind segmentKind, elapsed time.Duration, bytes int) {
	if ms == nil {
		return
	}
	if kind == segmentBase {
		ms.Checkpoints.Inc()
		ms.CheckpointBytes.Observe(float64(bytes))
	} else {
		ms.CheckpointDeltas.Inc()
		ms.CheckpointDeltaBytes.Observe(float64(bytes))
	}
	ms.CheckpointSeconds.Observe(elapsed.Seconds())
}

// observeCompaction records one rollover or Compact fold.
func (ms *Metrics) observeCompaction() {
	if ms == nil {
		return
	}
	ms.CheckpointCompactions.Inc()
}

// observeRecovery records one successful recovery with the replayed
// record count.
func (ms *Metrics) observeRecovery(replayed int) {
	if ms == nil {
		return
	}
	ms.Recoveries.Inc()
	ms.RecoveryReplay.Observe(float64(replayed))
}

// observeWALAppend / observeWALTruncate record redo-log activity.
func (ms *Metrics) observeWALAppend() {
	if ms == nil {
		return
	}
	ms.WALAppends.Inc()
}

func (ms *Metrics) observeWALTruncate() {
	if ms == nil {
		return
	}
	ms.WALTruncations.Inc()
}
