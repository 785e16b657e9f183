package pubsub

import (
	"strconv"
	"time"

	"abivm/internal/dataflow"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/obs"
	"abivm/internal/policy"
)

// brokerObs is the broker's instrumentation bundle. A nil *brokerObs —
// the default until SetObs — is the detached state: every method is a
// nil-receiver no-op and the step loop performs no measurement work at
// all (no time.Now, no gauge math). Every instrument is registered at
// attach time with a constant name; per-subscription series differ only
// in the `sub` label.
type brokerObs struct {
	reg *obs.Registry
	tr  *obs.Tracer

	// shard is the `shard` label value stamped onto every broker-level
	// series and the step span; "" (a standalone broker) emits the same
	// unlabeled series as before sharding existed.
	shard string

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

	// Shared-dataflow graph shape, synced at the end of each step while
	// the shared runtime is active (zero otherwise): live operator count,
	// attached views, cumulative hash-consing intern hits, the widest
	// operator fan-out, live arrangements and the join sides that reused
	// one, arrangement rows, deltas buffered in sinks, and the cumulative
	// count of arrangement entries trims examined.
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

	// ivm is the maintainer-layer bundle shared by every subscription's
	// maintainer and WAL; its histograms aggregate across subscriptions.
	ivm *ivm.Metrics
}

func newBrokerObs(reg *obs.Registry, tr *obs.Tracer, shard string) *brokerObs {
	var lbl []string
	if shard != "" {
		lbl = []string{"shard", shard}
	}
	return &brokerObs{
		reg:           reg,
		tr:            tr,
		shard:         shard,
		steps:         reg.Counter("pubsub_steps_total", lbl...),
		stepLatency:   reg.Histogram("pubsub_step_latency_seconds", obs.LatencyBuckets(), lbl...),
		publishes:     reg.Counter("pubsub_publishes_total", lbl...),
		notifications: reg.Counter("pubsub_notifications_total", lbl...),
		degradedNotes: reg.Counter("pubsub_degraded_notifications_total", lbl...),
		degradedSteps: reg.Counter("pubsub_degraded_sub_steps_total", lbl...),
		retries:       reg.Counter("pubsub_retries_total", lbl...),
		retryGiveups:  reg.Counter("pubsub_retry_giveups_total", lbl...),
		crashRecovers: reg.Counter("pubsub_crash_recoveries_total", lbl...),
		refreshCost:   reg.Histogram("pubsub_refresh_cost", obs.SizeBuckets(), lbl...),
		dfOperators:   reg.Gauge("ivm_dataflow_operators", lbl...),
		dfViews:       reg.Gauge("ivm_dataflow_views", lbl...),
		dfInternHits:  reg.Gauge("ivm_dataflow_intern_hits_total", lbl...),
		dfMaxFanout:   reg.Gauge("ivm_dataflow_max_fanout", lbl...),
		dfArrs:        reg.Gauge("ivm_dataflow_arrangements", lbl...),
		dfArrHits:     reg.Gauge("ivm_dataflow_arrangement_hits_total", lbl...),
		dfStateRows:   reg.Gauge("ivm_dataflow_state_rows", lbl...),
		dfRetained:    reg.Gauge("ivm_dataflow_retained_deltas", lbl...),
		dfTrimVisited: reg.Gauge("ivm_dataflow_trim_visited_total", lbl...),
		dfProbes:      reg.Gauge("ivm_dataflow_probes_total", lbl...),
		dfProducts:    reg.Gauge("ivm_dataflow_products_total", lbl...),
		// The maintainer-layer bundle stays unlabeled on purpose: ivm
		// histograms aggregate across every shard's subscriptions, and the
		// registry dedupes the same-name series so all shards share one
		// instance.
		ivm: ivm.NewMetrics(reg),
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

// SetObs attaches an observability sink: all broker-level instruments,
// per-subscription gauges (labeled `sub`), the shared maintainer/WAL
// bundle, span recording on tr (nil disables tracing only), and — when
// the current injector is a *fault.Seeded — a per-site fault counter via
// its observer hook. Subscriptions added later are wired on Subscribe.
// A nil registry detaches everything.
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
	b.obs = newBrokerObs(reg, tr, b.shardLabel)
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
func (s *sub) defaultPolicy() (*policy.OnlineMarginal, bool) {
	om, ok := s.pol.(*policy.OnlineMarginal)
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
	shard := b.shardLabel
	seeded.SetObserver(func(site fault.Site, kind fault.Kind) {
		kv := []string{"site", string(site), "kind", kind.String()}
		if shard != "" {
			kv = append(kv, "shard", shard)
		}
		reg.Counter("fault_injections_total", kv...).Inc()
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
	if o.shard != "" {
		sp.Attr("shard", o.shard)
	}
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

func (o *brokerObs) observeCrashRecovery() {
	if o == nil {
		return
	}
	o.crashRecovers.Inc()
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
