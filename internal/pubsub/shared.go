package pubsub

import (
	"errors"
	"fmt"

	"abivm/internal/dataflow"
	"abivm/internal/durable"
	"abivm/internal/ivm"
)

// sharedEngine is the shared-dataflow engine: the view's sink on the
// broker's operator graph plus its redo log. The graph holds the
// modifications — its ingest logs are the one record of every arrival —
// and does the join work once for all views, its operators logging the
// deltas they emit; the sink holds the per-view cursors and the folded
// content, and checkpoints its cursors alone in memory. The redo log
// holds what a recovery replays: drains. The graph itself is not part of
// a view's recovery point — it survives a per-view crash the way the live
// database does — and a recovery rebuilds the content at the
// checkpointed cursors from it.
type sharedEngine struct {
	*dataflow.ViewHandle
}

// newSharedEngine compiles the view into g (hash-consing against every
// operator already there), attaches its sink and redo log, and takes the
// initial checkpoint.
func newSharedEngine(g *dataflow.Graph, p *ivm.DeltaPlan, ns string) (*sharedEngine, error) {
	h, err := g.Subscribe(p)
	if err != nil {
		return nil, err
	}
	h.AttachWAL(ivm.NewWAL())
	h.SetNamespace(ns)
	h.Checkpoint()
	return &sharedEngine{ViewHandle: h}, nil
}

// Arrive has nothing to add: Graph.Ingest appended the modification to
// the table's ingest log, where the sink's cursor will find it.
func (e *sharedEngine) Arrive(ivm.Mod) error { return nil }

func (e *sharedEngine) Checkpoint() error {
	e.ViewHandle.Checkpoint()
	if err := e.WAL().TruncateThrough(e.TipLSN()); err != nil {
		return fmt.Errorf("wal truncation: %w", err)
	}
	return nil
}

// Recover rebuilds the sink's content at its checkpointed cursors from
// the graph, then replays the WAL's drains; the deltas they fold are
// still in the top operator's delta log, which keeps every delta a
// reader's checkpoint does not cover, so the redo is always exact.
func (e *sharedEngine) Recover() (bool, error) { return false, e.ViewHandle.Recover() }

func (e *sharedEngine) Sync() error                 { return nil }
func (e *sharedEngine) WALLen() int                 { return e.WAL().Len() }
func (e *sharedEngine) DurableStats() durable.Stats { return durable.Stats{} }

func (e *sharedEngine) SetMetrics(ms *ivm.Metrics) {
	e.ViewHandle.SetMetrics(ms)
	e.WAL().SetMetrics(ms)
}

// errSharedStore refuses the one engine × tier pair that does not
// exist: the shared graph has no per-operator disk checkpoint.
var errSharedStore = errors.New("pubsub: shared dataflow is incompatible with a durable store opener")

// SetSharedDataflow switches the broker to the shared delta-dataflow
// runtime: subscriptions registered afterwards compile into one
// hash-consed operator graph (structurally equal sub-plans run once,
// fanning out to all their views) instead of per-view maintainers.
// Enable it before the first subscription; it cannot be combined with
// existing classic subscriptions or with disk-backed durability
// (SetStoreOpener, in either call order — Subscribe refuses too), whose
// replica-snapshot checkpoints have no per-operator equivalent yet.
// Passing false returns future subscriptions to the classic runtime
// (only valid while no shared subscription exists).
func (b *Broker) SetSharedDataflow(on bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !on {
		if b.dataflowStats().Views > 0 {
			return fmt.Errorf("pubsub: cannot disable shared dataflow with live shared subscriptions")
		}
		b.shared = nil
		return nil
	}
	if len(b.subs) > 0 {
		return fmt.Errorf("pubsub: shared dataflow must be enabled before the first subscription")
	}
	if b.opener != nil {
		return errSharedStore
	}
	if b.shared == nil {
		b.shared = dataflow.NewGraph(b.db)
	}
	return nil
}

// DataflowStats snapshots the shared operator graph's shape (zero when
// the classic runtime is active).
func (b *Broker) DataflowStats() dataflow.GraphStats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.dataflowStats()
}

// dataflowStats is DataflowStats for callers holding b.mu.
func (b *Broker) dataflowStats() dataflow.GraphStats {
	if b.shared == nil {
		return dataflow.GraphStats{}
	}
	return b.shared.Stats()
}
