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
	"slices"
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
	// stale but never half-applied, since every drain is atomic. The rows
	// are shared with the view (ivm.ViewState.Result) and read-only: a
	// caller that edits one must copy it first.
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

// sub is the broker-side state of one subscription: the scheduling,
// QoS and notification state that is the same whichever engine
// maintains the view.
type sub struct {
	cfg Subscription
	// eng maintains the view and keeps it recoverable (see viewEngine).
	eng viewEngine
	pol policy.Policy
	// arrivals is, per alias index, the route of the table the alias
	// reads, and consumed its arrival count when the policy last took it:
	// stepMods, the policy's arrival vector, is their difference.
	arrivals []*tableRoute
	consumed []int
	stepMods core.Vector
	total    float64

	// Fault-tolerance state: the last step a full refresh succeeded, and
	// whether the QoS promise is currently broken.
	lastFresh int
	degraded  bool

	// pendBuf is the scratch slice behind Broker.pending: reused across
	// steps so polling the state vector allocates nothing. Only the
	// exclusive-lock step path may touch it.
	pendBuf []int

	// obs holds the subscription's labeled metric series; nil until the
	// broker has a sink attached (see SetObs).
	obs *subObs
}

// Broker owns the base tables and dispatches modifications to
// subscriptions. All exported methods are safe for concurrent use: the
// mutators (Subscribe, Publish, EndStep, the setters) serialize on an
// internal lock while the read-only accessors (Health, TotalCost,
// Subscriptions) share it — which is what lets a live ops endpoint scrape
// health while the workload loop runs. Result serializes with the
// mutators: rendering brings the view's key order up to date, a write to
// the engine's state.
type Broker struct {
	mu   sync.RWMutex
	db   *storage.DB
	subs []*sub
	step int
	// routes holds the route of every table some view reads; Subscribe
	// makes and extends it.
	routes map[string]*tableRoute

	inj     fault.Injector
	cpEvery int
	obs     *brokerObs

	// opener, when set, gives every later subscription a disk-backed
	// durability store keyed by its namespace; stores holds those it
	// opened, in subscription order.
	opener durable.Opener
	stores []*durable.Store

	// shared, when set, is the shared delta-dataflow operator graph all
	// later subscriptions compile into (see SetSharedDataflow); nil
	// selects the classic one-maintainer-per-view runtime.
	shared *dataflow.Graph

	// notes is EndStep's scratch: the step's notifications as they fire,
	// copied out once at the end of the step.
	notes []Notification
}

// DefaultCheckpointEvery is the default checkpoint cadence in steps.
const DefaultCheckpointEvery = 8

// NewBroker wraps a database of base tables.
func NewBroker(db *storage.DB) *Broker {
	return &Broker{
		db:      db,
		routes:  make(map[string]*tableRoute),
		cpEvery: DefaultCheckpointEvery,
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
		s.eng.SetInjector(inj)
	}
	b.observeInjector()
}

// SetCheckpointEvery sets the checkpoint cadence in steps; n <= 0
// disables periodic checkpoints (the Subscribe-time checkpoint remains
// the recovery point, with the whole WAL replayed on recovery). The
// shared graph trims every DefaultCheckpointEvery steps whatever it is.
func (b *Broker) SetCheckpointEvery(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cpEvery = n
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
	return b.durabilityStats()
}

// durabilityStats is DurabilityStats for callers holding b.mu.
func (b *Broker) durabilityStats() durable.Stats {
	var total durable.Stats
	for _, st := range b.stores {
		total.Add(st.Stats())
	}
	return total
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
	// Written to reject NaN too: no refresh cost is within a NaN or
	// negative bound, and the policy would answer with no action at all.
	if !(cfg.QoS >= 0) {
		return fmt.Errorf("pubsub: subscription %q: QoS %v is not a non-negative bound", cfg.Name, cfg.QoS)
	}
	if slices.ContainsFunc(b.subs, func(s *sub) bool { return s.cfg.Name == cfg.Name }) {
		return fmt.Errorf("pubsub: duplicate subscription %q", cfg.Name)
	}
	p, err := ivm.PlanView(cfg.Query)
	if err != nil {
		return fmt.Errorf("pubsub: subscription %q: %w", cfg.Name, err)
	}
	n := len(p.Sources)
	// The policies enumerate subsets of the view's tables, up to
	// core.MaxTables of them; past the cap the first full state would
	// panic inside the step loop.
	if n > core.MaxTables {
		return fmt.Errorf("pubsub: subscription %q: view reads %d tables, more than the %d a policy can schedule", cfg.Name, n, core.MaxTables)
	}
	if cfg.Model.N() != n {
		return fmt.Errorf("pubsub: subscription %q: model covers %d tables, view has %d", cfg.Name, cfg.Model.N(), n)
	}
	// The engine is born with its recovery baseline — a classic engine's
	// initial content, redo log and first checkpoint stamped with the
	// subscription's name as its durability namespace, a shared sink's
	// cursors — so a crash at any later point has a recovery point. The
	// injector is attached only afterwards.
	eng, err := b.newEngine(p, cfg.Query, cfg.Name)
	if err != nil {
		return fmt.Errorf("pubsub: subscription %q: %w", cfg.Name, err)
	}
	pol := cfg.Policy
	if pol == nil {
		pol = policy.NewOnlineMarginal(cfg.Model, cfg.QoS, nil)
	}
	pol.Reset(n)
	eng.SetInjector(b.inj)
	s := &sub{
		cfg: cfg, eng: eng, pol: pol, arrivals: make([]*tableRoute, n), consumed: make([]int, n),
		stepMods: core.NewVector(n), lastFresh: b.step,
	}
	b.wireSub(s)
	b.subs = append(b.subs, s)
	// The view counts its tables' arrivals from here on, each under its
	// one alias (PlanView refuses self-joins), in FROM order — the order of
	// every engine's Aliases.
	q, queues := eng.(*classicEngine)
	for i, src := range p.Sources {
		rt := b.routes[src.Table]
		if rt == nil {
			rt = &tableRoute{}
			b.routes[src.Table] = rt
		}
		s.arrivals[i], s.consumed[i] = rt, rt.arrived
		if queues {
			rt.queues = append(rt.queues, queueRoute{q, src.Alias})
		}
	}
	return nil
}

// newEngine builds the engine behind a new subscription — the one place
// the broker chooses between the shared operator graph and a per-view
// maintainer, and between the in-memory and the disk-backed durability
// tier. Caller holds b.mu.
func (b *Broker) newEngine(p *ivm.DeltaPlan, query, ns string) (viewEngine, error) {
	if b.shared == nil {
		var store *durable.Store
		if b.opener != nil {
			var err error
			if store, err = b.opener(ns); err != nil {
				return nil, fmt.Errorf("opening durable store: %w", err)
			}
		}
		e, err := newClassicEngine(b.db, query, ns, store)
		if err != nil {
			return nil, err
		}
		if store != nil {
			b.stores = append(b.stores, store)
		}
		return e, nil
	}
	if b.opener != nil {
		return nil, errSharedStore
	}
	return newSharedEngine(b.shared, p)
}

// tableRoute is what a publish to one base table reaches: the table's
// arrival count — the paper's d_t, kept once for every subscription
// reading the table — and the classic engines, which queue each arrival
// themselves, in registration order, with the alias each receives it
// under. A shared-graph engine is not among them: the graph's ingest log
// is the one record of every arrival.
type tableRoute struct {
	arrived int
	queues  []queueRoute
}

type queueRoute struct {
	q     *classicEngine
	alias string
}

// Publish applies one modification to the shared base tables and routes
// it to every subscription whose view references the table. The mod's
// Alias field names the *table*; the broker translates it to each
// subscription's alias. The live table changes exactly once, before any
// subscription hears of the modification; a table no subscription
// watches is simply updated.
func (b *Broker) Publish(table string, mod ivm.Mod) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.obs.observePublish()
	if err := ivm.ApplyLive(b.db, table, mod, b.watches(table)); err != nil {
		return err
	}
	return b.route(table, mod)
}

// route hands one modification, already applied to the live table, to
// the table's route: the engines that queue arrivals accept it, then it
// counts, once for every subscription reading the table. Under the shared
// runtime the operator graph ingests it first, once — that is its one
// record — propagating deltas to every view's sink in a single pass.
// Caller holds b.mu.
func (b *Broker) route(table string, mod ivm.Mod) error {
	rt := b.routes[table]
	if rt == nil {
		return nil
	}
	if b.shared != nil {
		if err := b.shared.Ingest(table, mod); err != nil {
			return err
		}
	}
	for _, qr := range rt.queues {
		mod.Alias = qr.alias
		if err := qr.q.Arrive(mod); err != nil {
			return err
		}
	}
	rt.arrived++
	return nil
}

// watches reports whether any subscription's view references the base
// table. Caller holds b.mu.
func (b *Broker) watches(table string) bool {
	return b.routes[table] != nil
}

// consumeArrivals marks every arrival so far as taken: by the policy, or
// by a fallback recovery, after which they are nobody's.
func (s *sub) consumeArrivals() {
	for i, rt := range s.arrivals {
		s.consumed[i] = rt.arrived
	}
}

// pending returns s's state vector through the subscription's reusable
// scratch slice — the allocation-free variant of Pending() for the
// step loop, which polls the vector several times per subscription per
// step. The returned vector is valid until the next pending call for
// the same subscription. Callers must hold b.mu exclusively.
func (b *Broker) pending(s *sub) core.Vector {
	s.pendBuf = s.eng.PendingInto(s.pendBuf)
	return core.Vector(s.pendBuf)
}

// EndStep closes a time step: every subscription's policy may drain its
// delta queues, and subscriptions whose conditions fire are refreshed
// and notified. The returned notifications carry the refreshed contents;
// the slice is the caller's, one allocation of exactly its length, or nil
// when no condition fired.
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
	for _, st := range b.stores {
		if err := st.Sync(); err != nil {
			return nil, fmt.Errorf("pubsub: %s: wal sync: %w", st.Namespace(), err)
		}
	}
	defer func() {
		clear(b.notes)
		b.notes = b.notes[:0]
	}()
	for _, s := range b.subs {
		sp := root.Child("sub")
		sp.Attr("sub", s.cfg.Name)
		if err := b.maybeCrash(s); err != nil {
			sp.End()
			return nil, err
		}
		// The policy gets the arrival vector and the pending scratch as
		// they are: the Policy contract forbids retaining or mutating
		// either, and the action it returns must alias neither.
		for i, rt := range s.arrivals {
			s.stepMods[i] = rt.arrived - s.consumed[i]
		}
		pending := b.pending(s)
		act := s.pol.Act(b.step, s.stepMods, pending, false)
		if len(act) != len(pending) || !act.NonNegative() || !act.DominatedBy(pending) {
			sp.End()
			return nil, fmt.Errorf("pubsub: %s: policy returned out-of-range action %v", s.cfg.Name, act)
		}
		drained := !act.IsZero()
		_, err := b.process(s, act)
		// Consumed only once the action has been used.
		s.consumeArrivals()
		if err != nil {
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
			b.notes = append(b.notes, n)
		}
		if s.degraded && b.obs != nil {
			b.obs.degradedSteps.Inc()
		}
		sp.End()
	}
	if err := b.checkpointDue(); err != nil {
		return nil, err
	}
	b.obs.observeStep(stepStart)
	b.step++
	if len(b.notes) == 0 {
		return nil, nil
	}
	return slices.Clone(b.notes), nil
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
			Rows:         s.eng.Result(),
			RefreshCost:  cost,
		}
		b.obs.observeNotification(s, n)
		return n, nil
	}
	if !fault.Transient(err) {
		return Notification{}, err
	}
	s.degraded = true
	n := Notification{
		Subscription:  s.cfg.Name,
		Step:          b.step,
		Rows:          s.eng.Result(),
		RefreshCost:   cost,
		Degraded:      true,
		StepsBehind:   b.step - s.lastFresh,
		CostOvershoot: s.overshoot(b.pending(s)),
	}
	b.obs.observeNotification(s, n)
	return n, nil
}

// overshoot is how far pending's refresh cost exceeds the QoS bound C
// while s is degraded: the unrepaired part of the constraint, 0 whenever
// the bound is kept.
func (s *sub) overshoot(pending core.Vector) float64 {
	if !s.degraded {
		return 0
	}
	return max(s.cfg.Model.Total(pending)-s.cfg.QoS, 0)
}

// maybeCrash polls the crash site and, when it fires, simulates a crash
// of the subscription's engine: its in-memory state is dropped and
// rebuilt from its recovery point plus the redo log. A fallback recovery
// means the durable artifacts were too damaged for exact replay — the
// rebuilt view reflects the live tables directly, so the un-drained
// backlog and the staleness clock restart here. A failed recovery is
// fatal — there is nothing sound left to degrade to.
func (b *Broker) maybeCrash(s *sub) error {
	if b.inj == nil || b.inj.Hit(fault.SiteCrash) == nil {
		return nil
	}
	fallback, err := s.eng.Recover()
	if err != nil {
		return fmt.Errorf("pubsub: %s: recovery failed: %w", s.cfg.Name, err)
	}
	if fallback {
		s.consumeArrivals()
		s.lastFresh = b.step
		s.degraded = false
	}
	b.obs.observeCrashRecovery(fallback)
	return nil
}

// checkpointDue takes the periodic per-subscription checkpoints, each
// truncating the WAL prefix it covers, and trims the shared graph. An
// injected checkpoint failure skips that subscription's checkpoint —
// recovery simply replays a longer WAL suffix, so nothing degrades. The
// graph trims every DefaultCheckpointEvery steps whatever the checkpoint
// cadence: join state below the cross-view watermark of the shared sinks'
// cursors can never be read at its own coordinates again, and a sink has
// nothing to checkpoint.
func (b *Broker) checkpointDue() error {
	if b.shared != nil && (b.step+1)%DefaultCheckpointEvery == 0 {
		b.shared.Trim()
	}
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
		if err := s.eng.Checkpoint(); err != nil {
			return fmt.Errorf("pubsub: %s: %w", s.cfg.Name, err)
		}
	}
	return nil
}

// process drains act[i] modifications from each of s's queues. Each
// per-table drain is atomic in the engine, so a drain that fails with an
// injected fault (fault.Transient) has rolled back and is retried at once,
// up to fault.MaxAttempts tries. On error the completed prefix has
// committed, the failed drain has rolled back, and the returned cost
// covers exactly the committed work.
func (b *Broker) process(s *sub, act core.Vector) (float64, error) {
	cost := 0.0
	for i, alias := range s.eng.Aliases() {
		k := act[i]
		if k == 0 {
			continue
		}
		err := b.drain(s, alias, k)
		for tries := 1; err != nil && fault.Transient(err); tries++ {
			if tries == fault.MaxAttempts {
				b.obs.observeRetryGiveup()
				break
			}
			b.obs.observeRetry()
			err = b.drain(s, alias, k)
		}
		if err != nil {
			return cost, err
		}
		c := s.cfg.Model.TableCost(i, k)
		cost += c
		s.total += c
	}
	return cost, nil
}

// drain makes one drain attempt on s's engine — the one place a drain of
// either engine is timed and counted, when a sink is attached.
func (b *Broker) drain(s *sub, alias string, k int) error {
	if b.obs == nil {
		return s.eng.ProcessBatch(alias, k)
	}
	//lint:ignore nondet drain latency feeds metrics only, never broker state
	start := time.Now()
	err := s.eng.ProcessBatch(alias, k)
	//lint:ignore nondet measurement of the drain, not part of it
	b.obs.observeDrain(time.Since(start), k, err)
	return err
}

// Refresh brings a subscription's content up to date on demand, outside
// any step — the paper's refresh, whose cost the step loop keeps within
// the QoS bound. It returns the notification a firing condition would
// deliver now, degraded when the refresh fails within the retry budget.
func (b *Broker) Refresh(name string) (Notification, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.find(name)
	if err != nil {
		return Notification{}, err
	}
	return b.notify(s)
}

// find returns the named subscription. Caller holds b.mu.
func (b *Broker) find(name string) (*sub, error) {
	for _, s := range b.subs {
		if s.cfg.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("pubsub: no subscription %q", name)
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
	s, err := b.find(name)
	if err != nil {
		return 0, err
	}
	return s.total, nil
}

// Result returns the (possibly stale) current content of a subscription.
// It takes the exclusive lock: an engine's Result updates its render order.
// The rows are shared with the view and read-only, as a Notification's.
func (b *Broker) Result(name string) ([]storage.Row, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, err := b.find(name)
	if err != nil {
		return nil, err
	}
	return s.eng.Result(), nil
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
	b.mu.RLock()
	defer b.mu.RUnlock()
	s, err := b.find(name)
	if err != nil {
		return Health{}, err
	}
	return Health{
		Degraded:    s.degraded,
		StepsBehind: b.step - s.lastFresh,
		Pending:     s.eng.PendingInto(nil),
		WALRecords:  s.eng.WALLen(),
	}, nil
}
