package ivm

import (
	"time"

	"abivm/internal/obs"
)

// Metrics is the maintainer's instrumentation bundle: redo-log activity,
// checkpoint cost, and recovery replay length — the events a maintainer
// decides itself. Drains and recoveries are counted by the broker, which
// decides them, and disk syncs and corruption by the durable store. Attach
// one bundle per registry via Maintainer.SetMetrics; a recovery hands it
// on to the maintainer it rebuilds (RecoverChainNamespaced,
// durable.Store.Recover). Several maintainers may share a bundle (every
// instrument is atomic), which is exactly what the broker does — the
// counters and histograms then aggregate across subscriptions. That is
// why the bundle holds no gauge: a gauge Set from one subscription's
// state would be overwritten by the next subscription's, and mean
// nothing (per-subscription levels are the broker's `sub`-labeled
// series). A nil *Metrics is the detached state: every recording helper
// no-ops and the checkpoint path skips its time.Now calls.
type Metrics struct {
	// WALAppends counts the records a maintainer appends to its redo log
	// — arrivals and drain commits (a view on the shared graph keeps no
	// redo log: the graph's ingest log records its arrivals and its
	// cursors its drains) — and WALTruncations the truncations it is
	// asked for (TruncateWAL).
	WALAppends     *obs.Counter
	WALTruncations *obs.Counter

	// Checkpoints counts successful full-base checkpoints; bytes and
	// seconds observe each checkpoint's size and duration.
	Checkpoints       *obs.Counter
	CheckpointBytes   *obs.Histogram
	CheckpointSeconds *obs.Histogram

	// Incremental checkpointing: CheckpointDeltas counts successful
	// delta-segment writes (full-segment writes stay in Checkpoints) and
	// CheckpointDeltaBytes observes each segment's size — the pair whose
	// ratio to Checkpoints/CheckpointBytes shows what incremental
	// checkpointing saves. CheckpointCompactions counts the rollovers: a
	// checkpoint that replaced the chain's base and deltas with a fresh
	// base. Delta durations fold into CheckpointSeconds alongside full
	// checkpoints.
	CheckpointDeltas      *obs.Counter
	CheckpointDeltaBytes  *obs.Histogram
	CheckpointCompactions *obs.Counter

	// RecoveryReplay observes the WAL suffix length each recovery of a
	// maintainer replayed.
	RecoveryReplay *obs.Histogram
}

// NewMetrics registers the maintainer instruments on r and returns the
// bundle (nil registry yields nil, the detached bundle).
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
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
		RecoveryReplay: r.Histogram("ivm_recovery_replayed_records",
			[]float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}),
	}
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

// observeCompaction records one rollover.
func (ms *Metrics) observeCompaction() {
	if ms == nil {
		return
	}
	ms.CheckpointCompactions.Inc()
}

// observeRecovery records the replayed record count of one recovery.
func (ms *Metrics) observeRecovery(replayed int) {
	if ms == nil {
		return
	}
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
