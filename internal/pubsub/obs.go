package pubsub

import (
	"strconv"
	"time"

	"abivm/internal/dataflow"
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
// all (no time.Now, no gauge math). Every instrument is registered at
// attach time with a constant name; per-subscription series differ only
// in the `sub` label.
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

	// Shared-dataflow graph shape, synced at the end of each step while
	// the shared runtime is active (zero otherwise): live operator count,
	// attached views, cumulative hash-consing intern hits, the widest
	// operator fan-out, live arrangements and the join sides that reused
	// one, arrangement rows, deltas buffered in sinks, the cumulative
	// count of arrangement entries trims examined, probes and products,
	// and the deltas drains folded and the log entries they walked.
	dfOperators   *obs.Gauge
	dfViews       *obs.Gauge
	dfInternHits  *obs.Gauge
	dfMaxFanout   *obs.Gauge
	dfArrs        *obs.Gauge
	dfArrHits     *obs.Gauge
	dfStateRows   *obs.Gauge
	dfRetained    *obs.Gauge
	dfTrimVisited *obs.Gauge
	dfProbes      *obs.Gauge
	dfProducts    *obs.Gauge
	dfFolds       *obs.Gauge
	dfFoldVisits  *obs.Gauge
	dfRebuilds    *obs.Gauge

	// ivm is the bundle every classic subscription's maintainer counts
	// its redo log, checkpoints and recovery replay in; its histograms
	// aggregate across subscriptions.
	ivm *ivm.Metrics
}

// newBrokerObs registers the broker's instruments; dur is the stores'
// counters so far, which the disk-tier series do not count.
func newBrokerObs(reg *obs.Registry, tr *obs.Tracer, dur durable.Stats) *brokerObs {
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
		dur:           dur,
		dfOperators:   reg.Gauge("ivm_dataflow_operators"),
		dfViews:       reg.Gauge("ivm_dataflow_views"),
		dfInternHits:  reg.Gauge("ivm_dataflow_intern_hits_total"),
		dfMaxFanout:   reg.Gauge("ivm_dataflow_max_fanout"),
		dfArrs:        reg.Gauge("ivm_dataflow_arrangements"),
		dfArrHits:     reg.Gauge("ivm_dataflow_arrangement_hits_total"),
		dfStateRows:   reg.Gauge("ivm_dataflow_state_rows"),
		dfRetained:    reg.Gauge("ivm_dataflow_retained_deltas"),
		dfTrimVisited: reg.Gauge("ivm_dataflow_trim_visited_total"),
		dfProbes:      reg.Gauge("ivm_dataflow_probes_total"),
		dfProducts:    reg.Gauge("ivm_dataflow_products_total"),
		dfFolds:       reg.Gauge("ivm_dataflow_folds_total"),
		dfFoldVisits:  reg.Gauge("ivm_dataflow_fold_visits_total"),
		dfRebuilds:    reg.Gauge("ivm_dataflow_rebuild_visits_total"),
		ivm:           ivm.NewMetrics(reg),
	}
}

// subObs holds one subscription's labeled series. The gauges mirror the
// Health snapshot continuously: steps-behind, QoS overshoot, backlog
// size, degraded flag, and retained WAL length.
type subObs struct {
	notifications *obs.Counter
	degradedNotes *obs.Counter
	stepsBehind   *obs.Gauge
	costOvershoot *obs.Gauge
	pendingMods   *obs.Gauge
	degraded      *obs.Gauge
	walRecords    *obs.Gauge
}

func newSubObs(reg *obs.Registry, name string) *subObs {
	return &subObs{
		notifications: reg.Counter("pubsub_sub_notifications_total", "sub", name),
		degradedNotes: reg.Counter("pubsub_sub_degraded_notifications_total", "sub", name),
		stepsBehind:   reg.Gauge("pubsub_sub_steps_behind", "sub", name),
		costOvershoot: reg.Gauge("pubsub_sub_cost_overshoot", "sub", name),
		pendingMods:   reg.Gauge("pubsub_sub_pending_mods", "sub", name),
		degraded:      reg.Gauge("pubsub_sub_degraded", "sub", name),
		walRecords:    reg.Gauge("pubsub_sub_wal_records", "sub", name),
	}
}

// SetObs attaches an observability sink: all broker-level instruments
// (among them the drain, recovery and disk-tier series the broker counts
// for every engine), per-subscription gauges (labeled `sub`), the ivm
// bundle each classic maintainer counts its own log and checkpoints in,
// span recording on tr (nil disables tracing only), and — when the
// current injector is a *fault.Seeded — a per-site fault counter via its
// observer hook. Subscriptions added later are wired on Subscribe. The
// sink counts only what happens after it is attached. A nil registry
// detaches everything.
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
	b.obs = newBrokerObs(reg, tr, b.durabilityStats())
	for _, s := range b.subs {
		b.wireSub(s)
	}
	b.observeInjector()
}

// wireSub attaches the current sink to one subscription. Caller holds
// b.mu.
func (b *Broker) wireSub(s *sub) {
	if b.obs == nil {
		return
	}
	s.obs = newSubObs(b.obs.reg, s.cfg.Name)
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
	s.obs.stepsBehind.Set(float64(n.StepsBehind))
	s.obs.costOvershoot.Set(n.CostOvershoot)
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

// syncDataflow mirrors the shared operator graph's shape onto the
// ivm_dataflow_* gauges.
func (o *brokerObs) syncDataflow(st dataflow.GraphStats) {
	if o == nil {
		return
	}
	o.dfOperators.Set(float64(st.Nodes))
	o.dfViews.Set(float64(st.Views))
	o.dfInternHits.Set(float64(st.InternHits))
	o.dfMaxFanout.Set(float64(st.MaxFanout))
	o.dfArrs.Set(float64(st.Arrangements))
	o.dfArrHits.Set(float64(st.ArrangementHits))
	o.dfStateRows.Set(float64(st.StateRows))
	o.dfRetained.Set(float64(st.RetainedDeltas))
	o.dfTrimVisited.Set(float64(st.TrimVisited))
	o.dfProbes.Set(float64(st.Probes))
	o.dfProducts.Set(float64(st.Products))
	o.dfFolds.Set(float64(st.Folds))
	o.dfFoldVisits.Set(float64(st.FoldVisits))
	o.dfRebuilds.Set(float64(st.RebuildVisits))
}

// syncSub refreshes a subscription's gauges after its share of a step
// and accumulates degraded time. Caller guarantees o != nil checks are
// unnecessary only via the nil-receiver no-op.
func (o *brokerObs) syncSub(b *Broker, s *sub) {
	if o == nil {
		return
	}
	// syncSub runs on the step path under the broker's exclusive lock, so
	// the subscription's reusable pending scratch is safe here.
	pending := b.pending(s)
	total := 0
	for _, k := range pending {
		total += k
	}
	s.obs.pendingMods.Set(float64(total))
	s.obs.stepsBehind.Set(float64(b.step - s.lastFresh))
	s.obs.walRecords.Set(float64(s.eng.WALLen()))
	if s.degraded {
		s.obs.degraded.Set(1)
		o.degradedSteps.Inc()
		over := s.cfg.Model.Total(pending) - s.cfg.QoS
		if over < 0 {
			over = 0
		}
		s.obs.costOvershoot.Set(over)
	} else {
		s.obs.degraded.Set(0)
		s.obs.costOvershoot.Set(0)
	}
}
