package pubsub

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"abivm/internal/core"
	"abivm/internal/dataflow"
	"abivm/internal/durable"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// Default sizing for the sharded ingest path.
const (
	// DefaultShardQueueCap bounds how many modifications one shard admits
	// between step barriers.
	DefaultShardQueueCap = 1024
	// DefaultIngestBatch is how many queued modifications a shard worker
	// drains per wakeup.
	DefaultIngestBatch = 32
)

// RejectReason says which admission bound a rejected publish hit.
type RejectReason int

const (
	// RejectQueueFull: the shard already admitted QueueCap modifications
	// since the last step barrier.
	RejectQueueFull RejectReason = iota
	// RejectBacklog: the shard's end-of-step refresh cost Σ_i f(s_i)
	// exceeded MaxBacklogCost, so it takes no new work until a step
	// drains it back under the bound.
	RejectBacklog
)

// String names the reason for logs and metric labels.
func (r RejectReason) String() string {
	switch r {
	case RejectQueueFull:
		return "queue_full"
	case RejectBacklog:
		return "backlog"
	}
	return "unknown"
}

// RejectionError is the typed error returned by ShardedBroker.Publish
// when admission control turns a modification away. The base tables are
// untouched and no shard received the modification — a rejected publish
// is all-or-nothing, so the caller can retry it after the next step.
type RejectionError struct {
	Shard  int
	Table  string
	Reason RejectReason
	// Admitted is the shard's admission count this step (queue_full).
	Admitted int
	// Cost is the shard's end-of-step backlog cost (backlog).
	Cost float64
	// Limit is the bound that was exceeded: QueueCap or MaxBacklogCost.
	Limit float64
}

func (e *RejectionError) Error() string {
	switch e.Reason {
	case RejectQueueFull:
		return fmt.Sprintf("pubsub: shard %d rejected publish on %q: queue full (%d admitted this step, cap %g)",
			e.Shard, e.Table, e.Admitted, e.Limit)
	case RejectBacklog:
		return fmt.Sprintf("pubsub: shard %d rejected publish on %q: backlog cost %.4g over limit %.4g",
			e.Shard, e.Table, e.Cost, e.Limit)
	}
	return fmt.Sprintf("pubsub: shard %d rejected publish on %q", e.Shard, e.Table)
}

// ShardOptions configures a ShardedBroker. The zero value means one
// shard with default queue sizing and no backlog bound.
type ShardOptions struct {
	// Shards is the number of worker-owned partitions; <= 0 means 1.
	Shards int
	// QueueCap bounds the modifications one shard admits between step
	// barriers; <= 0 selects DefaultShardQueueCap. The bound is checked
	// against a per-step admission counter, not the instantaneous queue
	// depth, so whether a publish is rejected depends only on the publish
	// sequence — never on worker timing.
	QueueCap int
	// MaxBacklogCost, when > 0, rejects publishes to a shard whose
	// refresh cost Σ_i f(s_i) measured at the last step barrier exceeds
	// the bound. The stale sample keeps admission deterministic.
	MaxBacklogCost float64
}

// ingest is one queued modification awaiting deferred routing on a shard.
type ingest struct {
	table string
	mod   ivm.Mod
}

// shardCmd is the barrier message a shard worker executes in-loop: drain
// the queue, optionally run EndStep, and reply.
type shardCmd struct {
	endStep bool
	reply   chan stepReply
}

// stepReply carries one shard's barrier results back to the merge layer.
type stepReply struct {
	notes   []Notification
	backlog float64
	err     error
}

// shard is one worker-owned partition: a full serial Broker plus the
// ingest queue feeding it.
type shard struct {
	id int
	b  *Broker

	// qmu guards the ingest queue and the obs pointer the worker reads.
	qmu   sync.Mutex
	queue []ingest
	so    *shardObs

	// batch is the worker's reusable drain buffer. Only the worker
	// goroutine touches it (drain runs nowhere else), so it needs no lock;
	// reusing it keeps the steady-state ingest path free of per-drain
	// allocations.
	batch []ingest

	wake chan struct{} // cap 1: coalesced "queue non-empty" signal
	cmd  chan shardCmd
	stop chan struct{}
	done chan struct{}

	// errMu guards asyncErr, the first deferred-routing failure since the
	// last barrier; it surfaces as that barrier's error.
	errMu    sync.Mutex
	asyncErr error

	// Publisher-side state, guarded by the ShardedBroker mutex: the
	// assignment load, the admission counter (reset at each barrier), and
	// the backlog cost sampled at the last barrier.
	subs     int
	weight   float64
	admitted int
	backlog  float64
}

// ShardedBroker is the sharded broker runtime: it partitions
// subscriptions across N worker-owned shards — each a full serial Broker
// with its own maintainers, WAL/checkpoint namespace, retry/degradation
// state, and fault injector — and merges their results. The publisher
// applies each live-table change exactly once, then hands the deferred
// copies to the owning shards through bounded ingest queues that the
// workers drain in batches (the paper's d_t count vectors arriving in
// bulk), while admission control rejects publishes that would overrun a
// shard's queue or its Σ f_i(s) cost headroom. The EndStep barrier
// drains every queue, steps every shard concurrently, and merges the
// notifications back into global registration order — which is what
// makes a single-shard run byte-identical to the serial broker, every
// observable output included (notifications, results, health, costs).
// All methods are safe for concurrent use; Publish and EndStep serialize
// on the broker's own lock while each shard's accessors synchronize
// against its worker.
type ShardedBroker struct {
	mu     sync.Mutex
	db     *storage.DB
	opts   ShardOptions
	shards []*shard

	// order is the global subscription registration order — the merge key
	// that makes sharded notification streams match the serial broker's.
	order []subRef

	// routes caches table → watching shards; invalidated on Subscribe.
	routes map[string][]*shard

	so *shardedObs
	// closed is set by Close: the workers have exited, so anything that
	// would hand them work returns errClosed instead of blocking on them.
	closed bool
}

// errClosed is returned by every ShardedBroker method that needs a
// shard worker once Close has stopped them.
var errClosed = errors.New("pubsub: broker closed")

// subRef locates one subscription: its name and owning shard.
type subRef struct {
	name  string
	shard int
}

// NewShardedBroker builds the sharded runtime over a database of base
// tables and starts one worker goroutine per shard. Close stops them.
func NewShardedBroker(db *storage.DB, opts ShardOptions) *ShardedBroker {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = DefaultShardQueueCap
	}
	sb := &ShardedBroker{db: db, opts: opts}
	for i := 0; i < opts.Shards; i++ {
		b := NewBroker(db)
		b.ns = "shard" + strconv.Itoa(i)
		b.shardLabel = strconv.Itoa(i)
		sh := &shard{
			id:   i,
			b:    b,
			wake: make(chan struct{}, 1),
			cmd:  make(chan shardCmd),
			stop: make(chan struct{}),
			done: make(chan struct{}),
		}
		sb.shards = append(sb.shards, sh)
		go sh.run()
	}
	return sb
}

// Close stops every shard worker. Queued-but-undrained modifications are
// dropped (their live-table effects already happened); call Quiesce
// first if they must reach the maintainers. Close is idempotent; after
// it Publish, EndStep, Quiesce and Subscribe return an error, while the
// read accessors keep answering from the shards' last state.
func (sb *ShardedBroker) Close() {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.closed {
		return
	}
	sb.closed = true
	for _, sh := range sb.shards {
		close(sh.stop)
	}
	for _, sh := range sb.shards {
		<-sh.done
	}
}

// run is the shard worker loop: drain on wake, execute barriers in-loop,
// exit on stop. The worker is the only goroutine that touches the
// shard's Broker mutators, so a shard's step work never races another's.
func (sh *shard) run() {
	defer close(sh.done)
	for {
		select {
		case <-sh.wake:
			sh.drain(DefaultIngestBatch)
		case c := <-sh.cmd:
			// The barrier sees every admitted modification: drain fully
			// before stepping.
			sh.drain(0)
			var r stepReply
			if c.endStep {
				r.notes, r.err = sh.b.EndStep()
			}
			if r.err == nil {
				sh.errMu.Lock()
				r.err = sh.asyncErr
				sh.asyncErr = nil
				sh.errMu.Unlock()
			}
			r.backlog = sh.b.backlogCost()
			c.reply <- r
		case <-sh.stop:
			return
		}
	}
}

// drain pops and routes queued modifications, batchSize at a time
// (batchSize <= 0 drains everything in one batch). Routing errors are
// parked in asyncErr for the next barrier — they cannot happen on the
// deferred path today (see Broker.routeDeferred), but a shard must
// never swallow one silently.
func (sh *shard) drain(batchSize int) {
	for {
		sh.qmu.Lock()
		n := len(sh.queue)
		if n == 0 {
			if sh.so != nil {
				sh.so.queueDepth.Set(0)
			}
			sh.qmu.Unlock()
			return
		}
		if batchSize > 0 && n > batchSize {
			n = batchSize
		}
		if cap(sh.batch) < n {
			sh.batch = make([]ingest, n)
		}
		batch := sh.batch[:n]
		copy(batch, sh.queue[:n])
		// Copy-down instead of re-slicing forward: the queue keeps its
		// backing array, so steady-state enqueue/drain cycles stop
		// re-growing it.
		if n == len(sh.queue) {
			sh.queue = sh.queue[:0]
		} else {
			rest := copy(sh.queue, sh.queue[n:])
			sh.queue = sh.queue[:rest]
		}
		so := sh.so
		depth := len(sh.queue)
		sh.qmu.Unlock()
		for _, in := range batch {
			if err := sh.b.routeDeferred(in.table, in.mod); err != nil {
				sh.errMu.Lock()
				if sh.asyncErr == nil {
					sh.asyncErr = fmt.Errorf("pubsub: shard %d: deferred publish on %q: %w", sh.id, in.table, err)
				}
				sh.errMu.Unlock()
			}
		}
		so.observeBatch(n, depth)
	}
}

// enqueue appends one modification to the ingest queue and wakes the
// worker (coalesced: a pending wakeup covers any number of enqueues).
func (sh *shard) enqueue(in ingest) {
	sh.qmu.Lock()
	sh.queue = append(sh.queue, in)
	if sh.so != nil {
		sh.so.queueDepth.Set(float64(len(sh.queue)))
	}
	sh.qmu.Unlock()
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// barrier sends cmd to every shard and collects the replies in shard
// order, updating each shard's backlog sample and resetting its
// admission counter. The first error (lowest shard id) wins, but every
// reply is always collected so no worker blocks. Caller holds sb.mu.
func (sb *ShardedBroker) barrier(endStep bool) ([][]Notification, error) {
	replies := make([]chan stepReply, len(sb.shards))
	for i, sh := range sb.shards {
		replies[i] = make(chan stepReply, 1)
		sh.cmd <- shardCmd{endStep: endStep, reply: replies[i]}
	}
	notes := make([][]Notification, len(sb.shards))
	var firstErr error
	for i, sh := range sb.shards {
		r := <-replies[i]
		if r.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("pubsub: shard %d: %w", sh.id, r.err)
		}
		notes[i] = r.notes
		sh.backlog = r.backlog
		sh.admitted = 0
		sh.syncObs()
	}
	return notes, firstErr
}

// lightestShard is the placement rule: the shard with the least
// accumulated cost weight (ties break to the lowest shard id), keeping
// the per-shard Σ f_i balanced the way the paper's per-table asymmetric
// costs suggest — an expensive view counts for more than a cheap one.
func lightestShard(shards []*shard) *shard {
	best := shards[0]
	for _, sh := range shards[1:] {
		if sh.weight < best.weight {
			best = sh
		}
	}
	return best
}

// subWeight is a subscription's assignment weight: the cost of draining
// one modification from every one of its delta queues, Σ_i f_i(1).
func subWeight(cfg Subscription) float64 {
	if cfg.Model == nil {
		return 0
	}
	ones := core.NewVector(cfg.Model.N())
	for i := range ones {
		ones[i] = 1
	}
	return cfg.Model.Total(ones)
}

// Subscribe registers a subscription on the shard carrying the least
// cost weight. The target shard is quiesced first so a mid-run subscription's
// initial snapshot (computed from the live tables, which already include
// every published modification) is not double-counted by deferred
// modifications still sitting in the shard's queue.
func (sb *ShardedBroker) Subscribe(cfg Subscription) error {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.closed {
		return errClosed
	}
	for _, ref := range sb.order {
		if ref.name == cfg.Name {
			return fmt.Errorf("pubsub: duplicate subscription %q", cfg.Name)
		}
	}
	sh := lightestShard(sb.shards)
	if err := sb.quiesceShard(sh); err != nil {
		return err
	}
	if err := sh.b.Subscribe(cfg); err != nil {
		return err
	}
	sh.subs++
	sh.weight += subWeight(cfg)
	sb.order = append(sb.order, subRef{name: cfg.Name, shard: sh.id})
	sb.routes = nil
	sh.syncObs()
	return nil
}

// quiesceShard drains one shard's queue through its worker. Caller holds
// sb.mu.
func (sb *ShardedBroker) quiesceShard(sh *shard) error {
	reply := make(chan stepReply, 1)
	sh.cmd <- shardCmd{reply: reply}
	r := <-reply
	sh.backlog = r.backlog
	sh.syncObs()
	if r.err != nil {
		return fmt.Errorf("pubsub: shard %d: %w", sh.id, r.err)
	}
	return nil
}

// Publish applies one modification to the shared base tables and routes
// it to every shard owning a subscription that references the table.
// The live-table change happens exactly once, synchronously, on the
// publisher's goroutine; the per-subscription deferred copies are
// enqueued on the owning shards and routed by their workers. Admission
// control runs before anything mutates: if any target shard is over its
// queue or backlog bound the publish returns a *RejectionError and no
// state — live table or queue — has changed.
func (sb *ShardedBroker) Publish(table string, mod ivm.Mod) error {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.closed {
		return errClosed
	}
	targets := sb.routesFor(table)
	for _, sh := range targets {
		if sh.admitted >= sb.opts.QueueCap {
			sh.observeReject(RejectQueueFull)
			return &RejectionError{
				Shard: sh.id, Table: table, Reason: RejectQueueFull,
				Admitted: sh.admitted, Limit: float64(sb.opts.QueueCap),
			}
		}
		if sb.opts.MaxBacklogCost > 0 && sh.backlog > sb.opts.MaxBacklogCost {
			sh.observeReject(RejectBacklog)
			return &RejectionError{
				Shard: sh.id, Table: table, Reason: RejectBacklog,
				Cost: sh.backlog, Limit: sb.opts.MaxBacklogCost,
			}
		}
	}
	if err := applyLive(sb.db, table, mod, len(targets) > 0); err != nil {
		return err
	}
	for _, sh := range targets {
		sh.admitted++
		sh.enqueue(ingest{table: table, mod: mod})
		sh.syncObs()
	}
	return nil
}

// routesFor resolves which shards watch a base table, caching the
// answer until the next Subscribe. Caller holds sb.mu.
func (sb *ShardedBroker) routesFor(table string) []*shard {
	if sb.routes == nil {
		sb.routes = make(map[string][]*shard)
	}
	if targets, ok := sb.routes[table]; ok {
		return targets
	}
	var targets []*shard
	for _, sh := range sb.shards {
		if sh.b.watchesTable(table) {
			targets = append(targets, sh)
		}
	}
	sb.routes[table] = targets
	return targets
}

// EndStep closes a time step across every shard: each worker drains its
// remaining queue, steps its own Broker (policies drain delta queues,
// conditions fire, degradation heals) concurrently with the others, and
// the merge layer reassembles the notifications into global registration
// order — exactly the order the serial broker would have emitted.
func (sb *ShardedBroker) EndStep() ([]Notification, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.closed {
		return nil, errClosed
	}
	notes, err := sb.barrier(true)
	if err != nil {
		return nil, err
	}
	// Merge: walk the global registration order; each shard's stream is a
	// subsequence in its own registration order, so taking the head when
	// it matches reconstructs the serial interleaving.
	heads := make([]int, len(notes))
	var out []Notification
	for _, ref := range sb.order {
		q := notes[ref.shard]
		if heads[ref.shard] < len(q) && q[heads[ref.shard]].Subscription == ref.name {
			out = append(out, q[heads[ref.shard]])
			heads[ref.shard]++
		}
	}
	return out, nil
}

// Quiesce blocks until every shard's ingest queue is fully drained into
// its maintainers, without stepping anyone. Accessors called after a
// Quiesce (and before further publishes) see a stable, fully-routed
// state — the chaos harness quiesces before comparing mid-run samples.
func (sb *ShardedBroker) Quiesce() error {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.closed {
		return errClosed
	}
	_, err := sb.barrier(false)
	return err
}

// owner finds the broker of the shard owning a subscription. Its
// accessors synchronize against the shard's worker themselves.
func (sb *ShardedBroker) owner(name string) (*Broker, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, ref := range sb.order {
		if ref.name == name {
			return sb.shards[ref.shard].b, nil
		}
	}
	return nil, fmt.Errorf("pubsub: no subscription %q", name)
}

// each runs f on every shard's broker, in shard order, under sb.mu.
func (sb *ShardedBroker) each(f func(id int, b *Broker)) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, sh := range sb.shards {
		f(sh.id, sh.b)
	}
}

// Subscriptions returns the registered subscription names in global
// registration order.
func (sb *ShardedBroker) Subscriptions() []string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	out := make([]string, len(sb.order))
	for i, ref := range sb.order {
		out[i] = ref.name
	}
	return out
}

// Health reports a subscription's fault-tolerance status, delegated to
// its owning shard. Like the serial broker it is safe to call while the
// workload runs; for a timing-stable Pending vector, Quiesce first.
func (sb *ShardedBroker) Health(name string) (Health, error) {
	b, err := sb.owner(name)
	if err != nil {
		return Health{}, err
	}
	return b.Health(name)
}

// Result returns the (possibly stale) current content of a subscription.
func (sb *ShardedBroker) Result(name string) ([]storage.Row, error) {
	b, err := sb.owner(name)
	if err != nil {
		return nil, err
	}
	return b.Result(name)
}

// TotalCost returns the accumulated model maintenance cost of a
// subscription.
func (sb *ShardedBroker) TotalCost(name string) (float64, error) {
	b, err := sb.owner(name)
	if err != nil {
		return 0, err
	}
	return b.TotalCost(name)
}

// ShardStat is an operator-facing snapshot of one shard.
type ShardStat struct {
	Shard         int
	Subscriptions int
	// Weight is the summed assignment weight Σ f_i(1) of the shard's
	// subscriptions.
	Weight float64
	// QueueDepth is the current ingest-queue length.
	QueueDepth int
	// Admitted counts modifications admitted since the last step barrier.
	Admitted int
	// BacklogCost is Σ_i f(s_i) sampled at the last step barrier.
	BacklogCost float64
}

// ShardStats snapshots every shard's load, in shard order.
func (sb *ShardedBroker) ShardStats() []ShardStat {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	out := make([]ShardStat, len(sb.shards))
	for i, sh := range sb.shards {
		sh.qmu.Lock()
		depth := len(sh.queue)
		sh.qmu.Unlock()
		out[i] = ShardStat{
			Shard:         sh.id,
			Subscriptions: sh.subs,
			Weight:        sh.weight,
			QueueDepth:    depth,
			Admitted:      sh.admitted,
			BacklogCost:   sh.backlog,
		}
	}
	return out
}

// SetInjectors installs per-shard fault injectors: factory(i) builds
// shard i's injector, so each shard owns an independent deterministic
// fault stream (a single shared *fault.Seeded would be both racy and
// schedule-dependent across workers). A nil factory disables injection
// everywhere. Convention: give shard i a seed derived from (base, i)
// with shard 0 getting the base seed, so a 1-shard faulted run replays a
// serial broker seeded the same way.
func (sb *ShardedBroker) SetInjectors(factory func(shard int) fault.Injector) {
	sb.each(func(id int, b *Broker) {
		if factory == nil {
			b.SetInjector(nil)
		} else {
			b.SetInjector(factory(id))
		}
	})
}

// SetStoreOpener installs a durable-store opener on every shard. Each
// shard prefixes its subscriptions' durability namespaces with
// "shard<i>/", so one opener rooted at a single directory gives every
// subscription its own subtree. Install before subscribing, like the
// serial broker's SetStoreOpener.
func (sb *ShardedBroker) SetStoreOpener(open durable.Opener) {
	sb.each(func(_ int, b *Broker) { b.SetStoreOpener(open) })
}

// SetSharedDataflow switches every shard onto (or off) the shared
// delta-dataflow runtime. Each shard builds its own hash-consed operator
// graph over the shared base tables, so sharing happens among the views
// co-located on a shard. Enable before subscribing, like the serial
// broker's SetSharedDataflow; the first failing shard's error wins.
func (sb *ShardedBroker) SetSharedDataflow(on bool) error {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, sh := range sb.shards {
		if err := sh.b.SetSharedDataflow(on); err != nil {
			return fmt.Errorf("pubsub: shard %d: %w", sh.id, err)
		}
	}
	return nil
}

// DataflowStats sums the shared operator-graph shape across shards
// (MaxFanout takes the widest shard). Zero when the classic runtime is
// active.
func (sb *ShardedBroker) DataflowStats() dataflow.GraphStats {
	var total dataflow.GraphStats
	sb.each(func(_ int, b *Broker) { total.Add(b.DataflowStats()) })
	return total
}

// DurabilityStats sums the durable-store counters across every shard's
// subscriptions.
func (sb *ShardedBroker) DurabilityStats() durable.Stats {
	var total durable.Stats
	sb.each(func(_ int, b *Broker) { total.Add(b.DurabilityStats()) })
	return total
}

// SetRetrySeed seeds each shard's backoff-jitter source with seed+shard,
// so shard 0 matches a serial broker seeded with seed and every shard's
// jitter stream is independent yet replayable.
func (sb *ShardedBroker) SetRetrySeed(seed int64) {
	sb.each(func(id int, b *Broker) { b.SetRetrySeed(seed + int64(id)) })
}

// SetCheckpointEvery sets every shard's checkpoint cadence in steps.
func (sb *ShardedBroker) SetCheckpointEvery(n int) {
	sb.each(func(_ int, b *Broker) { b.SetCheckpointEvery(n) })
}

// setSleep replaces every shard's backoff sleeper (tests use a no-op).
func (sb *ShardedBroker) setSleep(f func(time.Duration)) {
	sb.each(func(_ int, b *Broker) { b.setSleep(f) })
}
