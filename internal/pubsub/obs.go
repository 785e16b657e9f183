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
)

// brokerObs is the broker's instrumentation bundle. A nil *brokerObs —
// the default until SetObs — is the detached state: every method but
// observeDrain and syncDurable, whose callers test for nil, is a
// nil-receiver no-op, and the step loop performs no measurement work at
// all (no time.Now). Every instrument is registered at attach time with a
// constant name; per-subscription series differ only in the `sub` label.
// The levels — the graph's shape and each subscription's status — are
// GaugeFuncs that read the broker at each scrape, so the step loop keeps
// no copy of them.
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

	// The disk tier's series, copied from the stores' own durable.Stats
	// at the end of each step; dur is the sum the last copy saw.
	walSyncs     *obs.Counter
	walSyncBytes *obs.Counter
	corruptions  *obs.Counter
	quarantines  *obs.Counter
	fallbacks    *obs.Counter
	dur          durable.Stats

	// ivm is the bundle every classic subscription's maintainer counts
	// its redo log, checkpoints and recovery replay in; its histograms
	// aggregate across subscriptions.
	ivm *ivm.Metrics
}

// newBrokerObs registers b's instruments. The disk-tier series count
// from the stores' counters as they are now. The ivm_dataflow_* levels
// read the shared graph's shape at each scrape (zero while the classic
// runtime is active). Caller holds b.mu.
func newBrokerObs(b *Broker, reg *obs.Registry, tr *obs.Tracer) *brokerObs {
	df := b.DataflowStats
	reg.GaugeFunc("ivm_dataflow_operators", func() float64 { return float64(df().Nodes) })
	reg.GaugeFunc("ivm_dataflow_views", func() float64 { return float64(df().Views) })
	reg.GaugeFunc("ivm_dataflow_intern_hits_total", func() float64 { return float64(df().InternHits) })
	reg.GaugeFunc("ivm_dataflow_max_fanout", func() float64 { return float64(df().MaxFanout) })
	reg.GaugeFunc("ivm_dataflow_arrangements", func() float64 { return float64(df().Arrangements) })
	reg.GaugeFunc("ivm_dataflow_arrangement_hits_total", func() float64 { return float64(df().ArrangementHits) })
	reg.GaugeFunc("ivm_dataflow_state_rows", func() float64 { return float64(df().StateRows) })
	reg.GaugeFunc("ivm_dataflow_retained_deltas", func() float64 { return float64(df().RetainedDeltas) })
	reg.GaugeFunc("ivm_dataflow_trim_visited_total", func() float64 { return float64(df().TrimVisited) })
	reg.GaugeFunc("ivm_dataflow_probes_total", func() float64 { return float64(df().Probes) })
	reg.GaugeFunc("ivm_dataflow_products_total", func() float64 { return float64(df().Products) })
	reg.GaugeFunc("ivm_dataflow_folds_total", func() float64 { return float64(df().Folds) })
	reg.GaugeFunc("ivm_dataflow_fold_visits_total", func() float64 { return float64(df().FoldVisits) })
	reg.GaugeFunc("ivm_dataflow_rebuild_visits_total", func() float64 { return float64(df().RebuildVisits) })
	return &brokerObs{
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
		walSyncs:      reg.Counter("ivm_wal_sync_total"),
		walSyncBytes:  reg.Counter("ivm_wal_sync_bytes_total"),
		corruptions:   reg.Counter("ivm_recovery_corruption_total"),
		quarantines:   reg.Counter("ivm_recovery_corruption_quarantined_total"),
		fallbacks:     reg.Counter("ivm_recovery_corruption_fallbacks_total"),
		dur:           b.durabilityStats(),
		ivm:           ivm.NewMetrics(reg),
	}
}

// subObs holds one subscription's labeled counters.
type subObs struct {
	notifications *obs.Counter
	degradedNotes *obs.Counter
}

// SetObs attaches an observability sink: all broker-level instruments
// (among them the drain, recovery and disk-tier series the broker counts
// for every engine), per-subscription series (labeled `sub`), the ivm
// bundle each classic maintainer counts its own log and checkpoints in,
// span recording on tr (nil disables tracing only), and — when the
// current injector is a *fault.Seeded — a per-site fault counter via its
// observer hook. Subscriptions added later are wired on Subscribe. The
// sink counts only what happens after it is attached. A nil registry
// detaches: the old registry's counters and histograms stop, while its
// levels, which read the broker at each scrape, go on reading it.
func (b *Broker) SetObs(reg *obs.Registry, tr *obs.Tracer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if reg == nil {
		b.obs = nil
		for _, s := range b.subs {
			s.obs = nil
			s.eng.SetMetrics(nil)
			if om, ok := s.defaultPolicy(); ok {
				om.SetMetrics(nil)
			}
		}
		if seeded, ok := b.inj.(*fault.Seeded); ok {
			seeded.SetObserver(nil)
		}
		return
	}
	b.obs = newBrokerObs(b, reg, tr)
	for _, s := range b.subs {
		b.wireSub(s)
	}
	b.observeInjector()
}

// wireSub attaches the current sink to one subscription. Its levels read
// the subscription under the broker's read lock at each scrape, so they
// are the values Health reports. Caller holds b.mu.
func (b *Broker) wireSub(s *sub) {
	if b.obs == nil {
		return
	}
	reg, name := b.obs.reg, s.cfg.Name
	s.obs = &subObs{
		notifications: reg.Counter("pubsub_sub_notifications_total", "sub", name),
		degradedNotes: reg.Counter("pubsub_sub_degraded_notifications_total", "sub", name),
	}
	read := func(f func() float64) func() float64 {
		return func() float64 {
			b.mu.RLock()
			defer b.mu.RUnlock()
			return f()
		}
	}
	reg.GaugeFunc("pubsub_sub_steps_behind", read(func() float64 { return float64(b.step - s.lastFresh) }), "sub", name)
	reg.GaugeFunc("pubsub_sub_pending_mods", read(func() float64 { return float64(core.Vector(s.eng.PendingInto(nil)).Sum()) }), "sub", name)
	reg.GaugeFunc("pubsub_sub_cost_overshoot", read(func() float64 { return s.overshoot(s.eng.PendingInto(nil)) }), "sub", name)
	reg.GaugeFunc("pubsub_sub_degraded", read(func() float64 {
		if s.degraded {
			return 1
		}
		return 0
	}), "sub", name)
	reg.GaugeFunc("pubsub_sub_wal_records", read(func() float64 { return float64(s.eng.WALLen()) }), "sub", name)
	s.eng.SetMetrics(b.obs.ivm)
	// The decision-loop series are labeled by policy name only, so every
	// subscription's policy reports into the same registry-deduped
	// instruments.
	if om, ok := s.defaultPolicy(); ok {
		om.SetMetrics(policy.NewMetrics(b.obs.reg, om.Name()))
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

// syncDurable adds what the stores' counters grew by since the last copy
// to the disk-tier series.
func (o *brokerObs) syncDurable(st durable.Stats) {
	o.walSyncs.Add(int64(st.Syncs - o.dur.Syncs))
	o.walSyncBytes.Add(int64(st.SyncBytes - o.dur.SyncBytes))
	o.corruptions.Add(int64(st.Corruptions - o.dur.Corruptions))
	o.quarantines.Add(int64(st.Quarantined - o.dur.Quarantined))
	o.fallbacks.Add(int64(st.Fallbacks - o.dur.Fallbacks))
	o.dur = st
}
