package pubsub

import (
	"fmt"

	"abivm/internal/core"
	"abivm/internal/dataflow"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/policy"
	"abivm/internal/storage"
)

// viewEngine is the per-subscription view-runtime surface the broker
// drives: satisfied by both the classic per-view maintainer
// (ivm.Maintainer, private replicas per view) and the shared-dataflow
// handle (dataflow.ViewHandle, one operator graph for all views). The
// broker's scheduling, retry, QoS, and notification choreography is
// identical across the two; only ingestion and durability branch.
type viewEngine interface {
	Aliases() []string
	TableOf(alias string) string
	PendingInto(dst []int) []int
	ProcessBatch(alias string, k int) error
	Result() []storage.Row
	SetInjector(fault.Injector)
	SetMetrics(ms *ivm.Metrics)
	Namespace() string
}

// engine returns the subscription's view runtime.
func (s *sub) engine() viewEngine {
	if s.h != nil {
		return s.h
	}
	return s.m
}

// SetSharedDataflow switches the broker to the shared delta-dataflow
// runtime: subscriptions registered afterwards compile into one
// hash-consed operator graph (structurally equal sub-plans run once,
// fanning out to all their views) instead of per-view maintainers.
// Enable it before the first subscription; it cannot be combined with
// existing classic subscriptions or with disk-backed durability
// (SetStoreOpener), whose replica-snapshot checkpoints have no
// per-operator equivalent yet. Passing false returns future
// subscriptions to the classic runtime (only valid while no shared
// subscription exists).
func (b *Broker) SetSharedDataflow(on bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !on {
		if b.shared != nil && b.shared.Stats().Views > 0 {
			return fmt.Errorf("pubsub: cannot disable shared dataflow with live shared subscriptions")
		}
		b.shared = nil
		return nil
	}
	if len(b.subs) > 0 {
		return fmt.Errorf("pubsub: shared dataflow must be enabled before the first subscription")
	}
	if b.opener != nil {
		return fmt.Errorf("pubsub: shared dataflow is incompatible with a durable store opener")
	}
	if b.shared == nil {
		b.shared = dataflow.NewGraph(b.db)
	}
	return nil
}

// SharedDataflow reports whether the shared runtime is enabled.
func (b *Broker) SharedDataflow() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.shared != nil
}

// DataflowStats snapshots the shared operator graph's shape (zero when
// the classic runtime is active).
func (b *Broker) DataflowStats() dataflow.GraphStats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.shared == nil {
		return dataflow.GraphStats{}
	}
	return b.shared.Stats()
}

// subscribeShared is the shared-runtime half of Subscribe: compile the
// view into the graph (hash-consing against every operator already
// there) and attach the per-view sink. Caller holds b.mu and has
// validated cfg.
func (b *Broker) subscribeShared(cfg Subscription, ns string) (*sub, error) {
	p, err := ivm.PlanView(cfg.Query)
	if err != nil {
		return nil, fmt.Errorf("pubsub: subscription %q: %w", cfg.Name, err)
	}
	if n := len(p.Sources); cfg.Model.N() != n {
		return nil, fmt.Errorf("pubsub: subscription %q: model covers %d tables, view has %d", cfg.Name, cfg.Model.N(), n)
	}
	h, err := b.shared.Subscribe(p)
	if err != nil {
		return nil, fmt.Errorf("pubsub: subscription %q: %w", cfg.Name, err)
	}
	n := len(h.Aliases())
	pol := cfg.Policy
	if pol == nil {
		pol = policy.NewOnlineMarginal(cfg.Model, cfg.QoS, nil)
	}
	pol.Reset(n)
	s := &sub{
		cfg: cfg, h: h, pol: pol,
		tableIdx: tableIndex(h), stepMods: core.NewVector(n),
		wal: ivm.NewWAL(), lastFresh: b.step,
	}
	h.AttachWAL(s.wal)
	h.SetNamespace(ns)
	// The initial checkpoint is the recovery baseline, as in classic
	// mode; the shared graph itself is not part of it — it survives
	// per-view crashes the way the live database does.
	if err := h.Checkpoint(); err != nil {
		b.shared.Release(h)
		return nil, fmt.Errorf("pubsub: subscription %q: initial checkpoint: %w", cfg.Name, err)
	}
	return s, nil
}

// Unsubscribe removes a subscription. Under the shared runtime the
// view's operator references are returned to the graph — nodes still
// referenced by other views survive, the rest are released (the
// ref-counted lifecycle the sharing tests pin down).
func (b *Broker) Unsubscribe(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, s := range b.subs {
		if s.cfg.Name != name {
			continue
		}
		if s.h != nil {
			b.shared.Release(s.h)
		}
		b.subs = append(b.subs[:i], b.subs[i+1:]...)
		return nil
	}
	return fmt.Errorf("pubsub: no subscription %q", name)
}

// publishShared routes one modification under the shared runtime: the
// live table changes once, the graph ingests the modification once
// (propagating deltas to every view's pending set in a single pass),
// and each watching subscription logs the arrival under its own alias
// and counts it toward its policy's step vector. applyLive indicates
// whether this broker owns the live-table change (standalone Publish)
// or only observes it (sharded publishDeferred).
func (b *Broker) publishShared(table string, mod ivm.Mod, live bool) (int, error) {
	routed := 0
	for _, s := range b.subs {
		idx, ok := s.tableIdx[table]
		if !ok {
			continue
		}
		mod.Alias = s.h.Aliases()[idx]
		if routed == 0 {
			if live {
				if err := applyLive(b.db, table, mod); err != nil {
					return routed, err
				}
			}
			if err := b.shared.Ingest(table, mod); err != nil {
				return routed, err
			}
		}
		if err := s.h.LogArrival(mod); err != nil {
			return routed, err
		}
		s.stepMods[idx]++
		routed++
	}
	return routed, nil
}

// checkpointShared checkpoints one shared subscription and truncates
// its covered WAL prefix.
func (b *Broker) checkpointShared(s *sub) error {
	if err := s.h.Checkpoint(); err != nil {
		return fmt.Errorf("pubsub: %s: checkpoint: %w", s.cfg.Name, err)
	}
	if err := s.wal.TruncateThrough(s.h.TipLSN()); err != nil {
		return fmt.Errorf("pubsub: %s: wal truncation: %w", s.cfg.Name, err)
	}
	return nil
}

// trimShared garbage-collects the shared graph below the durability
// watermark: for every table, the minimum checkpoint-covered cursor
// across the subscriptions reading it. Retained deltas and join state
// below the watermark can never be needed by any recovery again.
func (b *Broker) trimShared() {
	if b.trimWM == nil {
		b.trimWM = make(map[string]uint64)
	}
	wm := b.trimWM
	clear(wm)
	for _, s := range b.subs {
		if s.h == nil {
			continue
		}
		dc := s.h.DurableCursors()
		// Iterate via the alias list, not the cursor map, so the fold
		// order is deterministic.
		for _, alias := range s.h.Aliases() {
			t := s.h.TableOf(alias)
			c, ok := dc[t]
			if !ok {
				c = 0
			}
			if cur, seen := wm[t]; !seen || c < cur {
				wm[t] = c
			}
		}
	}
	if len(wm) > 0 {
		b.shared.Trim(wm)
	}
}
