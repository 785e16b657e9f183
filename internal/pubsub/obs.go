package pubsub

import (
	"strconv"
	"time"

	"abivm/internal/core"
	"abivm/internal/durable"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/obs"
	"abivm/internal/policy"
	"abivm/internal/storage"
)

// brokerObs is the broker's instrumentation bundle. A nil *brokerObs —
// the default until SetObs — is the detached state: every method but
// observeDrain, whose caller tests for nil, is a nil-receiver no-op, and
// the step loop performs no measurement work at all (no time.Now). Every
// instrument is registered at attach time with a constant name;
// per-subscription series differ only in the `sub` label. What the broker
// already keeps — the graph's shape and counts, the stores' counters and
// each subscription's status — its collect function reads at each
// scrape, so the step loop keeps no copy of it.
type brokerObs struct {
	reg *obs.Registry
	tr  *obs.Tracer

	steps         *obs.Counter
	stepLatency   *obs.Histogram
	publishes     *obs.Counter
	notifications *obs.Counter
	degradedNotes *obs.Counter
	degradedSteps *obs.Counter
	retries       *obs.Counter
	retryGiveups  *obs.Counter
	crashRecovers *obs.Counter
	refreshCost   *obs.Histogram

	// The engine series the broker decides, the same on either engine:
	// every drain attempt (process) — its failures, the latency and
	// modifications of the committed ones — and every crash recovery that
	// did not fall back (maybeCrash).
	drains        *obs.Counter
	drainFailures *obs.Counter
	drainLatency  *obs.Histogram
	drainedMods   *obs.Counter
	recoveries    *obs.Counter

	// ivm is the bundle every classic subscription's maintainer counts
	// its redo log, checkpoints and recovery replay in; its histograms
	// aggregate across subscriptions.
	ivm *ivm.Metrics
}

// newBrokerObs registers b's instruments and its collect function. Caller
// holds b.mu.
func newBrokerObs(b *Broker, reg *obs.Registry, tr *obs.Tracer) *brokerObs {
	o := &brokerObs{
		reg:           reg,
		tr:            tr,
		steps:         reg.Counter("pubsub_steps_total"),
		stepLatency:   reg.Histogram("pubsub_step_latency_seconds", obs.LatencyBuckets()),
		publishes:     reg.Counter("pubsub_publishes_total"),
		notifications: reg.Counter("pubsub_notifications_total"),
		degradedNotes: reg.Counter("pubsub_degraded_notifications_total"),
		degradedSteps: reg.Counter("pubsub_degraded_sub_steps_total"),
		retries:       reg.Counter("pubsub_retries_total"),
		retryGiveups:  reg.Counter("pubsub_retry_giveups_total"),
		crashRecovers: reg.Counter("pubsub_crash_recoveries_total"),
		refreshCost:   reg.Histogram("pubsub_refresh_cost", obs.SizeBuckets()),
		drains:        reg.Counter("ivm_drains_total"),
		drainFailures: reg.Counter("ivm_drain_failures_total"),
		drainLatency:  reg.Histogram("ivm_drain_latency_seconds", obs.LatencyBuckets()),
		drainedMods:   reg.Counter("ivm_drained_mods_total"),
		recoveries:    reg.Counter("ivm_recoveries_total"),
		ivm:           ivm.NewMetrics(reg),
	}
	attached := b.durabilityStats()
	reg.Collect(b, func(c *obs.Collector) { b.collect(c, attached) })
	reg.Collect(internerOwner{}, collectInterner)
	return o
}

// internerOwner keys the interner's collect function: every broker on a
// registry — each shard of a ShardedBroker too — registers it under the
// same owner, so the process-wide levels are reported once, not summed.
type internerOwner struct{}

// collectInterner reports the process's string interner, which only
// grows: interned text is never freed.
func collectInterner(c *obs.Collector) {
	n, bytes := storage.InternStats()
	c.Gauge("ivm_storage_interned_strings", float64(n))
	c.Gauge("ivm_storage_interned_bytes", float64(bytes))
}

// collect reports, under one read lock, the series b reads from what it
// keeps: the shared graph's shape and counts (zero while the classic
// runtime is active), the disk tier's counters less what they read at
// attach, and each subscription's levels — the values Health reports.
func (b *Broker) collect(c *obs.Collector, attached durable.Stats) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	df := b.dataflowStats()
	c.Gauge("ivm_dataflow_operators", float64(df.Nodes))
	c.Gauge("ivm_dataflow_views", float64(df.Views))
	c.Gauge("ivm_dataflow_max_fanout", float64(df.MaxFanout))
	c.Gauge("ivm_dataflow_arrangements", float64(df.Arrangements))
	c.Gauge("ivm_dataflow_state_rows", float64(df.StateRows))
	c.Gauge("ivm_dataflow_retained_deltas", float64(df.RetainedDeltas))
	c.Counter("ivm_dataflow_intern_hits_total", float64(df.InternHits))
	c.Counter("ivm_dataflow_arrangement_hits_total", float64(df.ArrangementHits))
	c.Counter("ivm_dataflow_trim_visited_total", float64(df.TrimVisited))
	c.Counter("ivm_dataflow_probes_total", float64(df.Probes))
	c.Counter("ivm_dataflow_products_total", float64(df.Products))
	c.Counter("ivm_dataflow_folds_total", float64(df.Folds))
	c.Counter("ivm_dataflow_fold_visits_total", float64(df.FoldVisits))
	c.Counter("ivm_dataflow_rebuild_visits_total", float64(df.RebuildVisits))
	dur := b.durabilityStats()
	c.Counter("ivm_wal_sync_total", float64(dur.Syncs-attached.Syncs))
	c.Counter("ivm_wal_sync_bytes_total", float64(dur.SyncBytes-attached.SyncBytes))
	c.Counter("ivm_recovery_corruption_total", float64(dur.Corruptions-attached.Corruptions))
	c.Counter("ivm_recovery_corruption_quarantined_total", float64(dur.Quarantined-attached.Quarantined))
	c.Counter("ivm_recovery_corruption_fallbacks_total", float64(dur.Fallbacks-attached.Fallbacks))
	var pending []int
	for _, s := range b.subs {
		pending = s.eng.PendingInto(pending)
		degraded := 0.0
		if s.degraded {
			degraded = 1
		}
		name := s.cfg.Name
		c.Gauge("pubsub_sub_steps_behind", float64(b.step-s.lastFresh), "sub", name)
		c.Gauge("pubsub_sub_pending_mods", float64(core.Vector(pending).Sum()), "sub", name)
		c.Gauge("pubsub_sub_cost_overshoot", s.overshoot(pending), "sub", name)
		c.Gauge("pubsub_sub_degraded", degraded, "sub", name)
		c.Gauge("pubsub_sub_wal_records", float64(s.eng.WALLen()), "sub", name)
	}
}

// subObs holds one subscription's labeled counters.
type subObs struct {
	notifications *obs.Counter
	degradedNotes *obs.Counter
}

// SetObs attaches an observability sink: all broker-level series
// (among them the drain, recovery and disk-tier series the broker counts
// or reads for every engine), per-subscription series (labeled `sub`), the ivm
// bundle each classic maintainer counts its own log and checkpoints in,
// span recording on tr (nil disables tracing only), and — when the
// current injector is a *fault.Seeded — a per-site fault counter via its
// observer hook. Subscriptions added later are wired on Subscribe. The
// sink counts only what happens after it is attached. Attaching another
// registry, or nil, detaches the old one: its counters and histograms
// stop where they are, and the series the broker's collect function
// reported leave it.
func (b *Broker) SetObs(reg *obs.Registry, tr *obs.Tracer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.obs != nil {
		b.obs.reg.Collect(b, nil)
		b.obs = nil
	}
	if reg != nil {
		b.obs = newBrokerObs(b, reg, tr)
	} else if seeded, ok := b.inj.(*fault.Seeded); ok {
		seeded.SetObserver(nil)
	}
	for _, s := range b.subs {
		b.wireSub(s)
	}
	b.observeInjector()
}

// wireSub attaches the current sink, or none, to one subscription: its
// two labeled counters, the ivm bundle and its policy's series (its
// levels are the broker's collect function's). Caller holds b.mu.
func (b *Broker) wireSub(s *sub) {
	var reg *obs.Registry
	var ms *ivm.Metrics
	s.obs = nil
	if b.obs != nil {
		reg, ms = b.obs.reg, b.obs.ivm
		s.obs = &subObs{
			notifications: reg.Counter("pubsub_sub_notifications_total", "sub", s.cfg.Name),
			degradedNotes: reg.Counter("pubsub_sub_degraded_notifications_total", "sub", s.cfg.Name),
		}
	}
	s.eng.SetMetrics(ms)
	// The decision-loop series are labeled by policy name only, so every
	// subscription's policy reports into the same registry-deduped
	// instruments.
	if om, ok := s.defaultPolicy(); ok {
		om.SetMetrics(policy.NewMetrics(reg, om.Name()))
	}
}

// defaultPolicy returns the subscription's policy when the broker chose
// it — a policy the subscriber brought is the subscriber's to instrument.
func (s *sub) defaultPolicy() (*policy.Online, bool) {
	om, ok := s.pol.(*policy.Online)
	return om, ok && s.cfg.Policy == nil
}

// observeInjector hooks the fault counter into a seeded injector. Caller
// holds b.mu.
func (b *Broker) observeInjector() {
	if b.obs == nil {
		return
	}
	seeded, ok := b.inj.(*fault.Seeded)
	if !ok {
		return
	}
	reg := b.obs.reg
	seeded.SetObserver(func(site fault.Site, kind fault.Kind) {
		reg.Counter("fault_injections_total", "site", string(site), "kind", kind.String()).Inc()
	})
}

// startStep opens the step's root span and latency clock; with no sink
// attached it returns a nil span and a zero time without touching the
// clock.
func (o *brokerObs) startStep(step int) (*obs.Span, time.Time) {
	if o == nil {
		return nil, time.Time{}
	}
	sp := o.tr.Start("step")
	sp.Attr("step", strconv.Itoa(step))
	//lint:ignore nondet step latency feeds metrics only, never broker state
	return sp, time.Now()
}

// observeStep closes out a successfully completed step.
func (o *brokerObs) observeStep(start time.Time) {
	if o == nil {
		return
	}
	o.steps.Inc()
	//lint:ignore nondet measurement of the step, not part of it
	o.stepLatency.Observe(time.Since(start).Seconds())
}

func (o *brokerObs) observePublish() {
	if o == nil {
		return
	}
	o.publishes.Inc()
}

// observeNotification records a delivered notification on the broker
// and subscription series.
func (o *brokerObs) observeNotification(s *sub, n Notification) {
	if o == nil {
		return
	}
	o.notifications.Inc()
	o.refreshCost.Observe(n.RefreshCost)
	s.obs.notifications.Inc()
	if n.Degraded {
		o.degradedNotes.Inc()
		s.obs.degradedNotes.Inc()
	}
}

func (o *brokerObs) observeRetry() {
	if o == nil {
		return
	}
	o.retries.Inc()
}

func (o *brokerObs) observeRetryGiveup() {
	if o == nil {
		return
	}
	o.retryGiveups.Inc()
}

// observeDrain records one drain attempt's outcome.
func (o *brokerObs) observeDrain(elapsed time.Duration, k int, err error) {
	o.drains.Inc()
	if err != nil {
		o.drainFailures.Inc()
		return
	}
	o.drainLatency.Observe(elapsed.Seconds())
	o.drainedMods.Add(int64(k))
}

// observeCrashRecovery records one crash recovery; one that did not fall
// back also counts as an engine recovery.
func (o *brokerObs) observeCrashRecovery(fallback bool) {
	if o == nil {
		return
	}
	o.crashRecovers.Inc()
	if !fallback {
		o.recoveries.Inc()
	}
}
