// Package pubsub implements the subscription system that motivates the
// paper (Section 1): subscribers register a *content query* (what they
// want) and a *notification condition* (when they want it), and the
// system guarantees a bound on the processing delay when a notification
// fires. Content queries are materialized views maintained batch-
// incrementally; the per-subscription response-time constraint C is
// exactly the paper's constraint, and each subscription's scheduling
// policy decides which delta queues to drain between notifications.
//
// The broker multiplexes one stream of base-table modifications to every
// subscription whose view references the modified table. Base tables are
// shared; by default each subscription keeps its own view-consistent
// replicas (the ivm.Maintainer), so subscriptions never interfere.
// SetSharedDataflow switches later subscriptions onto the shared
// delta-dataflow runtime (internal/dataflow), where structurally equal
// sub-plans are hash-consed into one operator graph and maintained once.
package pubsub

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"abivm/internal/core"
	"abivm/internal/dataflow"
	"abivm/internal/durable"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/policy"
	"abivm/internal/storage"
)

// Condition decides whether a subscription should be notified at the end
// of a step. It sees only external signals (time, application events) —
// by design it must not depend on the view contents, which are stale
// between refreshes.
type Condition func(step int) bool

// Every returns a condition firing every n steps.
func Every(n int) Condition {
	if n < 1 {
		panic("pubsub: Every needs n >= 1")
	}
	return func(step int) bool { return step > 0 && step%n == 0 }
}

// Notification is delivered to a subscriber when its condition fires.
type Notification struct {
	Subscription string
	Step         int
	// Rows is the refreshed content of the subscription's query. For a
	// degraded notification it is instead the last consistent snapshot —
	// stale but never half-applied, since every drain is atomic.
	Rows []storage.Row
	// RefreshCost is the model cost of bringing the content up to date;
	// for non-degraded notifications the broker guarantees RefreshCost <=
	// the subscription's QoS bound. For degraded notifications it covers
	// only the drains that committed before the refresh gave up.
	RefreshCost float64
	// Degraded marks a notification delivered in degraded mode: the
	// refresh could not be completed within the broker's retry budget.
	Degraded bool
	// StepsBehind is the number of steps since the subscription's content
	// was last fully refreshed; 0 for fresh notifications.
	StepsBehind int
	// CostOvershoot is how far the pending refresh cost exceeds the QoS
	// bound C at delivery time — the unrepaired part of the constraint.
	// 0 when the bound holds (always, for non-degraded notifications).
	CostOvershoot float64
}

// Subscription couples a content query with its QoS parameters.
type Subscription struct {
	Name      string
	Query     string
	Condition Condition
	// Model holds one cost function per FROM alias of Query.
	Model *core.CostModel
	// QoS is the response-time constraint C for this subscription.
	QoS float64
	// Policy schedules the subscription's maintenance; nil selects the
	// marginal-rate online policy.
	Policy policy.Policy
}

// CompiledSubscription is anything that can provision a complete
// subscription — typically a view compiled by the SQL→IVM compiler
// front end (internal/viewc), which derives the delta plan, calibrates
// the cost model, and packages the result. The interface lives here so
// the compiler can depend on pubsub without pubsub depending back on the
// compiler.
type CompiledSubscription interface {
	Subscription() Subscription
}

// SubscribeCompiled registers a compiled view's subscription — identical
// to Subscribe(cv.Subscription()).
func (b *Broker) SubscribeCompiled(cv CompiledSubscription) error {
	return b.Subscribe(cv.Subscription())
}

// sub is the broker-side state of one subscription.
type sub struct {
	cfg Subscription
	// Exactly one of m / h is set: m is the classic per-view maintainer,
	// h the shared-dataflow sink (see SetSharedDataflow). engine()
	// returns whichever is live.
	m   *ivm.Maintainer
	h   *dataflow.ViewHandle
	pol policy.Policy
	// tableIdx routes a modification: base table -> index (in Aliases()
	// and stepMods) of the alias that receives it, resolved once at
	// subscribe.
	tableIdx map[string]int
	stepMods core.Vector
	total    float64

	// Fault-tolerance state: the subscription's redo log, its incremental
	// checkpoint chain (the recovery point: base segment plus deltas), the
	// last step a full refresh succeeded, and whether the QoS promise is
	// currently broken.
	wal       *ivm.WAL
	chain     *ivm.CheckpointChain
	lastFresh int
	degraded  bool

	// store is the subscription's disk-backed durability store: the WAL
	// sink and checkpoint segment store behind wal and chain. nil unless
	// the broker has a store opener installed, in which case recovery goes
	// through the corruption-hardened disk path instead of the in-memory
	// chain replay.
	store *durable.Store

	// pendBuf is the scratch slice behind Broker.pending: reused across
	// steps so polling the state vector allocates nothing. Only the
	// exclusive-lock step path may touch it; shared-lock readers
	// (backlogCost, HealthInto) use the broker's pendPool or caller
	// scratch instead.
	pendBuf []int

	// obs holds the subscription's labeled metric series; nil until the
	// broker has a sink attached (see SetObs).
	obs *subObs
}

// Broker owns the base tables and dispatches modifications to
// subscriptions. All exported methods are safe for concurrent use: the
// mutators (Subscribe, Publish, EndStep, the setters) serialize on an
// internal lock while the read-only accessors (Health, Result,
// TotalCost, Subscriptions) share it — which is what lets a live ops
// endpoint scrape health while the workload loop runs.
type Broker struct {
	mu   sync.RWMutex
	db   *storage.DB
	subs []*sub
	step int

	inj        fault.Injector
	retryPol   RetryPolicy
	retryRNG   *rand.Rand // seeded jitter source; nil disables jitter
	cpEvery    int
	chainDepth int
	sleep      func(time.Duration)
	obs        *brokerObs

	// opener, when set, gives every later subscription a disk-backed
	// durability store keyed by its namespace.
	opener durable.Opener

	// shared, when set, is the shared delta-dataflow operator graph all
	// later subscriptions compile into (see SetSharedDataflow); nil
	// selects the classic one-maintainer-per-view runtime.
	shared *dataflow.Graph
	// trimWM is trimShared's watermark map, reused across checkpoints.
	trimWM map[string]uint64

	// pendPool recycles the scratch vectors behind the shared-lock read
	// paths (backlogCost, HealthInto); pooling instead of a single broker
	// field because concurrent readers each need their own scratch.
	pendPool sync.Pool

	// Sharded-runtime identity, set by ShardedBroker before any
	// subscription exists: ns prefixes the durability namespace of every
	// subscription ("shard3/east"), shardLabel is the `shard` label value
	// stamped onto the broker-level metric series. Both are empty for a
	// standalone broker.
	ns         string
	shardLabel string
}

// DefaultCheckpointEvery is the default checkpoint cadence in steps.
const DefaultCheckpointEvery = 8

// NewBroker wraps a database of base tables.
func NewBroker(db *storage.DB) *Broker {
	return &Broker{
		db:         db,
		retryPol:   DefaultRetryPolicy(),
		cpEvery:    DefaultCheckpointEvery,
		chainDepth: ivm.DefaultChainDepth,
		sleep:      time.Sleep,
	}
}

// SetInjector installs a fault injector on the broker and every current
// and future subscription's maintainer. Pass nil to disable injection.
func (b *Broker) SetInjector(inj fault.Injector) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := inj.(fault.Nop); ok {
		inj = nil
	}
	b.inj = inj
	for _, s := range b.subs {
		s.engine().SetInjector(inj)
	}
	b.observeInjector()
}

// SetRetryPolicy replaces the broker's retry budget.
func (b *Broker) SetRetryPolicy(r RetryPolicy) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.retryPol = r
}

// SetRetrySeed seeds the backoff-jitter source. Jitter is always drawn
// from this broker-owned, seeded generator — never from the global rand
// — so runs with the same seed and schedule produce byte-identical
// backoff sequences, keeping chaos executions replayable. Without a
// seed (the default) backoff has no jitter at all.
func (b *Broker) SetRetrySeed(seed int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.retryRNG = rand.New(rand.NewSource(seed))
}

// SetCheckpointEvery sets the checkpoint cadence in steps; n <= 0
// disables periodic checkpoints (the Subscribe-time checkpoint remains
// the recovery point, with the whole WAL replayed on recovery).
func (b *Broker) SetCheckpointEvery(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cpEvery = n
}

// SetCheckpointChainDepth sets how many incremental delta segments a
// subscription's checkpoint chain accumulates before rolling over to a
// fresh full base. 0 writes a full base on every checkpoint — the
// pre-chain full-checkpoint behavior — and n < 0 selects
// ivm.DefaultChainDepth.
// Applies to current and future subscriptions.
func (b *Broker) SetCheckpointChainDepth(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n < 0 {
		n = ivm.DefaultChainDepth
	}
	b.chainDepth = n
	for _, s := range b.subs {
		if s.chain != nil {
			s.chain.SetMaxDepth(n)
		}
	}
}

// SetStoreOpener installs a durable-store opener: every subscription
// registered afterwards gets a disk-backed WAL and checkpoint segment
// store under its durability namespace, and simulated crashes recover
// through the corruption-hardened disk path (durable.Store.Recover)
// instead of the in-memory chain. Existing subscriptions are unaffected
// — install the opener before subscribing. Pass nil to return to
// in-memory durability for future subscriptions.
func (b *Broker) SetStoreOpener(open durable.Opener) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.opener = open
}

// DurabilityStats sums the durable-store counters across subscriptions;
// the zero value when no subscription has a disk-backed store.
func (b *Broker) DurabilityStats() durable.Stats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	var total durable.Stats
	for _, s := range b.subs {
		if s.store != nil {
			total.Add(s.store.Stats())
		}
	}
	return total
}

// setSleep replaces the backoff sleeper (tests use a no-op).
func (b *Broker) setSleep(f func(time.Duration)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sleep = f
}

// Subscribe registers a subscription; its initial content is computed
// immediately.
func (b *Broker) Subscribe(cfg Subscription) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if cfg.Name == "" {
		return fmt.Errorf("pubsub: subscription needs a name")
	}
	if cfg.Condition == nil {
		return fmt.Errorf("pubsub: subscription %q needs a condition", cfg.Name)
	}
	if cfg.Model == nil {
		return fmt.Errorf("pubsub: subscription %q needs a cost model", cfg.Name)
	}
	for _, existing := range b.subs {
		if existing.cfg.Name == cfg.Name {
			return fmt.Errorf("pubsub: duplicate subscription %q", cfg.Name)
		}
	}
	// The durability namespace ("<shard>/<name>" under a sharded broker,
	// "<name>" standalone) names the recovery point whichever runtime
	// backs the view.
	ns := cfg.Name
	if b.ns != "" {
		ns = b.ns + "/" + cfg.Name
	}
	if b.shared != nil {
		s, err := b.subscribeShared(cfg, ns)
		if err != nil {
			return err
		}
		s.h.SetInjector(b.inj)
		b.wireSub(s)
		b.subs = append(b.subs, s)
		return nil
	}
	m, err := ivm.New(b.db, cfg.Query)
	if err != nil {
		return fmt.Errorf("pubsub: subscription %q: %w", cfg.Name, err)
	}
	n := len(m.Aliases())
	if cfg.Model.N() != n {
		return fmt.Errorf("pubsub: subscription %q: model covers %d tables, view has %d", cfg.Name, cfg.Model.N(), n)
	}
	pol := cfg.Policy
	if pol == nil {
		pol = policy.NewOnlineMarginal(cfg.Model, cfg.QoS, nil)
	}
	pol.Reset(n)
	s := &sub{
		cfg: cfg, m: m, pol: pol,
		tableIdx: tableIndex(m), stepMods: core.NewVector(n),
		wal: ivm.NewWAL(), lastFresh: b.step,
	}
	// Durability from the first step: attach the redo log, stamp the
	// durability namespace, and take the initial checkpoint, so a crash
	// at any later point has a recovery point whose ownership is
	// verifiable. The injector is attached only after the checkpoint —
	// the subscription must be born with a consistent recovery baseline.
	m.AttachWAL(s.wal)
	m.SetNamespace(ns)
	s.chain = ivm.NewCheckpointChain(b.chainDepth)
	// Disk-backed durability attaches before the initial checkpoint: the
	// store becomes the WAL's sink and the chain's segment store, so the
	// subscription's very first base segment already lands on disk and a
	// crash before the first step recovers from files.
	if b.opener != nil {
		store, err := b.opener(ns)
		if err != nil {
			return fmt.Errorf("pubsub: subscription %q: opening durable store: %w", cfg.Name, err)
		}
		s.store = store
		s.wal.SetSink(store)
		s.chain.SetStore(store)
	}
	if err := s.chain.Checkpoint(m); err != nil {
		return fmt.Errorf("pubsub: subscription %q: initial checkpoint: %w", cfg.Name, err)
	}
	m.SetInjector(b.inj)
	b.wireSub(s)
	b.subs = append(b.subs, s)
	return nil
}

// Publish applies one modification to the shared base tables and routes
// it to every subscription whose view references the table. The mod's
// Alias field names the *table*; the broker translates it to each
// subscription's alias.
//
// Because base tables are shared while maintainers apply modifications
// themselves, Publish applies the change through the FIRST matching
// subscription and enqueues it logically for the others; if no
// subscription references the table, the change is applied directly.
func (b *Broker) Publish(table string, mod ivm.Mod) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.obs.observePublish()
	if b.shared != nil {
		routed, err := b.publishShared(table, mod, true)
		if err != nil {
			return err
		}
		if routed == 0 {
			return applyDirect(b.db, table, mod)
		}
		return nil
	}
	routed := false
	for _, s := range b.subs {
		idx, ok := s.tableIdx[table]
		if !ok {
			continue
		}
		mod.Alias = s.m.Aliases()[idx]
		if !routed {
			if err := s.m.Apply(mod); err != nil {
				return err
			}
			routed = true
		} else {
			if err := s.m.ApplyDeferred(mod); err != nil {
				return err
			}
		}
		s.stepMods[idx]++
	}
	if !routed {
		return applyDirect(b.db, table, mod)
	}
	return nil
}

// publishDeferred routes one modification to every subscription whose
// view references the table WITHOUT touching the live base tables: the
// deltas are enqueued (and WAL-logged) through ApplyDeferred only. It is
// the shard-worker half of the sharded broker's ingest path — the
// ShardedBroker applies the live change exactly once on the publisher
// side, then each shard applies its own deferred copies here. Returns
// the number of subscriptions the modification was routed to.
func (b *Broker) publishDeferred(table string, mod ivm.Mod) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.obs.observePublish()
	if b.shared != nil {
		return b.publishShared(table, mod, false)
	}
	routed := 0
	for _, s := range b.subs {
		idx, ok := s.tableIdx[table]
		if !ok {
			continue
		}
		mod.Alias = s.m.Aliases()[idx]
		if err := s.m.ApplyDeferred(mod); err != nil {
			return routed, err
		}
		s.stepMods[idx]++
		routed++
	}
	return routed, nil
}

// watchesTable reports whether any subscription's view references the
// base table.
func (b *Broker) watchesTable(table string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, s := range b.subs {
		if _, ok := s.tableIdx[table]; ok {
			return true
		}
	}
	return false
}

// backlogCost returns the summed model cost of fully refreshing every
// subscription — the shard-level Σ_i f(s_i) that the sharded broker's
// admission control compares against its headroom bound. It runs on the
// shared lock once per barrier per shard, so the pending vector goes
// through pooled scratch instead of a fresh allocation.
func (b *Broker) backlogCost() float64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	buf, _ := b.pendPool.Get().(*[]int)
	if buf == nil {
		buf = new([]int)
	}
	total := 0.0
	for _, s := range b.subs {
		*buf = s.engine().PendingInto(*buf)
		total += s.cfg.Model.Total(core.Vector(*buf))
	}
	b.pendPool.Put(buf)
	return total
}

// pending returns s's state vector through the subscription's reusable
// scratch slice — the allocation-free variant of s.m.Pending() for the
// step loop, which polls the vector several times per subscription per
// step. The returned vector is valid until the next pending call for
// the same subscription. Callers must hold b.mu exclusively; the
// shared-lock readers (backlogCost, Health) allocate instead.
func (b *Broker) pending(s *sub) core.Vector {
	s.pendBuf = s.engine().PendingInto(s.pendBuf)
	return core.Vector(s.pendBuf)
}

// tableIndex builds a subscription's routing table: each base table the
// view reads -> the index of the first alias, in registration order, it
// is read under.
func tableIndex(eng viewEngine) map[string]int {
	idx := make(map[string]int)
	for i, alias := range eng.Aliases() {
		table := eng.TableOf(alias)
		if _, seen := idx[table]; !seen {
			idx[table] = i
		}
	}
	return idx
}

// applyLive applies one modification to a live base table on behalf of
// the sharded ingest path, enforcing the same update rule the maintainer
// enforces on the serial path (the primary key must not change), so a
// watched table behaves identically whichever broker fronts it.
func applyLive(db *storage.DB, table string, mod ivm.Mod) error {
	if mod.Kind == ivm.ModUpdate {
		tbl, err := db.Table(table)
		if err != nil {
			return err
		}
		if tbl.Schema().KeyOf(mod.Row) != storage.EncodeKey(mod.Key...) {
			return fmt.Errorf("pubsub: update must not change the primary key (table %q)", table)
		}
	}
	return applyDirect(db, table, mod)
}

// applyDirect applies a modification to a table no subscription watches.
func applyDirect(db *storage.DB, table string, mod ivm.Mod) error {
	tbl, err := db.Table(table)
	if err != nil {
		return err
	}
	switch mod.Kind {
	case ivm.ModInsert:
		return tbl.Insert(mod.Row)
	case ivm.ModDelete:
		_, err := tbl.Delete(mod.Key...)
		return err
	case ivm.ModUpdate:
		_, err := tbl.Update(mod.Key, mod.Row)
		return err
	}
	return fmt.Errorf("pubsub: unknown modification kind %d", mod.Kind)
}

// EndStep closes a time step: every subscription's policy may drain its
// delta queues, and subscriptions whose conditions fire are refreshed
// and notified. The returned notifications carry the refreshed contents.
//
// EndStep keeps the broker's QoS promise under faults: transient drain
// failures are retried within the step's budget; a crash event recovers
// the maintainer from its checkpoint plus WAL before the step's work;
// and when the constraint still can't be repaired, the subscription
// degrades — notifications carry the last consistent snapshot tagged
// with explicit staleness instead of the broker erroring out — and
// heals on the next successful drain. Only policy-contract violations
// and non-injected internal errors abort the step.
func (b *Broker) EndStep() ([]Notification, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	root, stepStart := b.obs.startStep(b.step)
	defer root.End()
	// Durability barrier: flush every disk-backed WAL before any crash
	// site is polled this step, so at every simulated crash point the
	// on-disk log matches the in-memory log and a fault-free disk
	// recovery is byte-identical to the in-memory one. (Appends made
	// later in this step are covered by the next step's barrier, and a
	// crash is only ever simulated at the top of a subscription's turn.)
	for _, s := range b.subs {
		if s.store == nil {
			continue
		}
		if err := s.store.Sync(); err != nil {
			return nil, fmt.Errorf("pubsub: %s: wal sync: %w", s.cfg.Name, err)
		}
	}
	var out []Notification
	for _, s := range b.subs {
		sp := root.Child("sub")
		sp.Attr("sub", s.cfg.Name)
		if err := b.maybeCrash(s); err != nil {
			sp.End()
			return nil, err
		}
		pending := b.pending(s)
		act := s.pol.Act(b.step, s.stepMods.Clone(), pending.Clone(), false)
		if !act.NonNegative() || !act.DominatedBy(pending) {
			sp.End()
			return nil, fmt.Errorf("pubsub: %s: policy returned out-of-range action %v", s.cfg.Name, act)
		}
		// The policy received a clone, so the live counter can be zeroed in
		// place instead of reallocated each step.
		for i := range s.stepMods {
			s.stepMods[i] = 0
		}
		drained := !act.IsZero()
		if _, err := b.process(s, act); err != nil {
			if !fault.Transient(err) {
				sp.End()
				return nil, err
			}
			// The retry budget is spent and the drain rolled back; carry
			// the backlog forward in degraded mode.
			s.degraded = true
			drained = false
		}
		if post := b.pending(s); s.cfg.Model.Full(post, s.cfg.QoS) {
			if !s.degraded {
				sp.End()
				return nil, fmt.Errorf("pubsub: %s: policy %s left refresh cost %.4g > QoS %.4g",
					s.cfg.Name, s.pol.Name(), s.cfg.Model.Total(post), s.cfg.QoS)
			}
			// Degraded: the bound is broken by failed drains, not by the
			// policy; the overshoot is reported on the next notification.
		} else if s.degraded && drained {
			// A drain committed and brought the backlog back under the
			// bound: healed.
			s.degraded = false
		}
		if s.cfg.Condition(b.step) {
			nsp := sp.Child("notify")
			n, err := b.notify(s)
			nsp.End()
			if err != nil {
				sp.End()
				return nil, err
			}
			out = append(out, n)
		}
		b.obs.syncSub(b, s)
		sp.End()
	}
	if err := b.checkpointDue(); err != nil {
		return nil, err
	}
	if b.shared != nil && b.obs != nil {
		b.obs.syncDataflow(b.shared.Stats())
	}
	b.obs.observeStep(stepStart)
	b.step++
	return out, nil
}

// notify refreshes s fully and builds its notification. A refresh that
// fails even after retries yields a degraded notification carrying the
// last consistent snapshot and explicit staleness instead of an error.
func (b *Broker) notify(s *sub) (Notification, error) {
	cost, err := b.process(s, b.pending(s))
	if err == nil {
		s.degraded = false
		s.lastFresh = b.step
		n := Notification{
			Subscription: s.cfg.Name,
			Step:         b.step,
			Rows:         s.engine().Result(),
			RefreshCost:  cost,
		}
		b.obs.observeNotification(s, n)
		return n, nil
	}
	if !fault.Transient(err) {
		return Notification{}, err
	}
	s.degraded = true
	over := s.cfg.Model.Total(b.pending(s)) - s.cfg.QoS
	if over < 0 {
		over = 0
	}
	n := Notification{
		Subscription:  s.cfg.Name,
		Step:          b.step,
		Rows:          s.engine().Result(),
		RefreshCost:   cost,
		Degraded:      true,
		StepsBehind:   b.step - s.lastFresh,
		CostOvershoot: over,
	}
	b.obs.observeNotification(s, n)
	return n, nil
}

// maybeCrash polls the crash site and, when it fires, simulates a
// maintainer crash: the in-memory state is dropped and rebuilt from the
// last checkpoint plus the WAL. A failed recovery is fatal — there is
// nothing sound left to degrade to.
func (b *Broker) maybeCrash(s *sub) error {
	if b.inj == nil || b.inj.Hit(fault.SiteCrash) == nil {
		return nil
	}
	var ms *ivm.Metrics
	if b.obs != nil {
		ms = b.obs.ivm
	}
	if s.h != nil {
		// Shared path: the view's sink state (cursors, folded content,
		// pending deltas) is rebuilt from its snapshot plus WAL; the
		// operator graph itself survives the per-view crash the way the
		// live database does, and the handle re-derives its pending set
		// from the graph's retained delta log.
		if err := s.h.Recover(); err != nil {
			return fmt.Errorf("pubsub: %s: recovery failed: %w", s.cfg.Name, err)
		}
		b.obs.observeCrashRecovery()
		return nil
	}
	if s.store != nil {
		// Disk path: the in-memory WAL and chain die with the process;
		// everything is rebuilt from the store's files through the
		// corruption-hardened ladder. A fallback recovery means the
		// artifacts were too damaged for exact replay — the rebuilt view
		// reflects the live tables directly, so the un-drained backlog and
		// the staleness clock restart here.
		rec, err := s.store.Recover(b.db, s.cfg.Query, b.chainDepth, ms)
		if err != nil {
			return fmt.Errorf("pubsub: %s: disk recovery failed: %w", s.cfg.Name, err)
		}
		rec.M.SetInjector(b.inj)
		s.m, s.wal, s.chain = rec.M, rec.WAL, rec.Chain
		if rec.Fallback {
			for i := range s.stepMods {
				s.stepMods[i] = 0
			}
			s.lastFresh = b.step
			s.degraded = false
		}
		b.obs.observeCrashRecovery()
		return nil
	}
	// Recovery validates the checkpoint's durability namespace: a shard
	// can only restore its own subscription's recovery point.
	m, err := ivm.RecoverChainNamespaced(b.db, s.cfg.Query, s.m.Namespace(), s.chain, s.wal, ms)
	if err != nil {
		return fmt.Errorf("pubsub: %s: recovery failed: %w", s.cfg.Name, err)
	}
	m.SetInjector(b.inj)
	s.m = m
	b.obs.observeCrashRecovery()
	return nil
}

// checkpointDue takes the periodic per-subscription checkpoints and
// truncates the covered WAL prefixes. Each checkpoint extends the
// subscription's chain — a small delta segment in the steady state, a
// full base only when the chain is empty or at its depth and rolls
// over. An injected checkpoint failure skips that subscription's
// checkpoint — recovery simply replays a longer WAL suffix, so nothing
// degrades.
func (b *Broker) checkpointDue() error {
	if b.cpEvery <= 0 || (b.step+1)%b.cpEvery != 0 {
		return nil
	}
	for _, s := range b.subs {
		if b.inj != nil {
			if err := b.inj.Hit(fault.SiteCheckpoint); err != nil {
				if fault.Transient(err) {
					continue
				}
				return err
			}
		}
		if s.h != nil {
			if err := b.checkpointShared(s); err != nil {
				return err
			}
			continue
		}
		if err := s.chain.Checkpoint(s.m); err != nil {
			return fmt.Errorf("pubsub: %s: checkpoint: %w", s.cfg.Name, err)
		}
		if err := s.wal.TruncateThrough(s.chain.TipLSN()); err != nil {
			return fmt.Errorf("pubsub: %s: wal truncation: %w", s.cfg.Name, err)
		}
	}
	// With every shared subscription's durable cursor advanced, retained
	// deltas and join state below the cross-view watermark can never be
	// replayed again — garbage-collect them.
	if b.shared != nil {
		b.trimShared()
	}
	return nil
}

// process drains act[i] modifications from each of s's queues. Each
// per-table drain is atomic in the maintainer and retried within the
// broker's budget, so on error the completed prefix has committed, the
// failed drain has rolled back, and the returned cost covers exactly the
// committed work.
func (b *Broker) process(s *sub, act core.Vector) (float64, error) {
	cost := 0.0
	eng := s.engine()
	for i, alias := range eng.Aliases() {
		if act[i] == 0 {
			continue
		}
		alias, k := alias, act[i]
		if err := b.retry(func() error { return eng.ProcessBatch(alias, k) }); err != nil {
			return cost, err
		}
		c := s.cfg.Model.TableCost(i, k)
		cost += c
		s.total += c
	}
	return cost, nil
}

// Subscriptions returns the registered subscription names, in
// registration order.
func (b *Broker) Subscriptions() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, len(b.subs))
	for i, s := range b.subs {
		out[i] = s.cfg.Name
	}
	return out
}

// TotalCost returns the accumulated model maintenance cost of a
// subscription.
func (b *Broker) TotalCost(name string) (float64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, s := range b.subs {
		if s.cfg.Name == name {
			return s.total, nil
		}
	}
	return 0, fmt.Errorf("pubsub: no subscription %q", name)
}

// Result returns the (possibly stale) current content of a subscription.
func (b *Broker) Result(name string) ([]storage.Row, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, s := range b.subs {
		if s.cfg.Name == name {
			return s.engine().Result(), nil
		}
	}
	return nil, fmt.Errorf("pubsub: no subscription %q", name)
}

// Health is a snapshot of one subscription's fault-tolerance state.
type Health struct {
	// Degraded reports whether the QoS promise is currently broken.
	Degraded bool
	// StepsBehind counts steps since the last successful full refresh.
	StepsBehind int
	// Pending is the per-table delta queue state (the paper's vector s).
	Pending []int
	// WALRecords is the number of redo-log records retained (not yet
	// covered by a checkpoint).
	WALRecords int
}

// Health reports a subscription's fault-tolerance status. It is safe to
// call concurrently with the workload loop (e.g. from the ops endpoint).
func (b *Broker) Health(name string) (Health, error) {
	var h Health
	err := b.HealthInto(name, &h)
	if err != nil {
		return Health{}, err
	}
	return h, nil
}

// HealthInto fills h with a subscription's fault-tolerance status,
// reusing h.Pending as scratch — the allocation-free variant of Health
// for pollers (the ops endpoint, the chaos harness) that scrape every
// step. The shared-lock section itself never allocates; only growing an
// undersized h.Pending does, so a reused h reaches steady state after
// one call.
func (b *Broker) HealthInto(name string, h *Health) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, s := range b.subs {
		if s.cfg.Name == name {
			h.Degraded = s.degraded
			h.StepsBehind = b.step - s.lastFresh
			h.Pending = s.engine().PendingInto(h.Pending)
			h.WALRecords = s.wal.Len()
			return nil
		}
	}
	return fmt.Errorf("pubsub: no subscription %q", name)
}
