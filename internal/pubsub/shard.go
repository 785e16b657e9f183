package pubsub

import (
	"errors"
	"fmt"
	"sync"

	"abivm/internal/core"
	"abivm/internal/dataflow"
	"abivm/internal/durable"
	"abivm/internal/ivm"
	"abivm/internal/obs"
	"abivm/internal/storage"
)

// ShardOptions configures a ShardedBroker. The zero value means one
// shard.
type ShardOptions struct {
	// Shards is the number of partitions; <= 0 means 1.
	Shards int
}

// ingest is one published modification awaiting routing on a shard.
type ingest struct {
	table string
	mod   ivm.Mod
}

// shard is one partition: a full serial Broker plus the publishes it has
// not routed yet. Every field but b, which locks itself, is guarded by
// the ShardedBroker's mutex.
type shard struct {
	id int
	b  *Broker

	// buf holds the modifications published to the shard since it last
	// routed, in publish order; their live-table effect already happened.
	buf []ingest

	// The assignment load lightestShard balances.
	subs   int
	weight float64
}

// ShardedBroker is N serial Brokers over one shared database, stepped in
// parallel, without fault injection; only the benchmark's sharded-2
// workload builds one. Subscriptions are partitioned across the shards,
// each a full serial Broker with its own maintainers and
// retry/degradation state; a subscription's durability namespace is its
// name, which Subscribe keeps unique across shards. Publish applies each
// live-table change exactly once and buffers the modification on every
// shard that watches the table — an arrival does no work, it only adds
// to the paper's d_t. EndStep routes each shard's buffer and steps the
// shard, one goroutine per shard, then merges the notifications back
// into global registration order — which is what makes a single-shard
// run byte-identical to the serial broker, every observable output
// included (notifications, results, costs). All methods are safe for
// concurrent use and serialize on the broker's own lock; no goroutine
// outlives the EndStep that started it.
type ShardedBroker struct {
	mu     sync.Mutex
	db     *storage.DB
	shards []*shard

	// order is the global subscription registration order — the merge key
	// that makes sharded notification streams match the serial broker's.
	order []subRef

	// routes caches table → watching shards; invalidated on Subscribe.
	routes map[string][]*shard
}

// subRef locates one subscription: its name and owning shard.
type subRef struct {
	name  string
	shard int
}

// NewShardedBroker builds the sharded runtime over a database of base
// tables. It starts no goroutine.
func NewShardedBroker(db *storage.DB, opts ShardOptions) *ShardedBroker {
	sb := &ShardedBroker{db: db}
	for i := 0; i < max(opts.Shards, 1); i++ {
		sb.shards = append(sb.shards, &shard{id: i, b: NewBroker(db)})
	}
	return sb
}

// Close releases what the broker holds outside the garbage collector's
// reach — nothing: it runs no goroutine between calls.
func (sb *ShardedBroker) Close() {}

// flush routes the shard's buffered publishes into its broker, in publish
// order, and empties the buffer. Caller holds sb.mu, or is the one
// EndStep goroutine of this shard.
func (sh *shard) flush() error {
	if len(sh.buf) == 0 {
		return nil
	}
	err := sh.b.routeDeferred(sh.buf)
	sh.buf = sh.buf[:0]
	return err
}

// routeDeferred is the shard half of the sharded broker's publish path:
// the ShardedBroker applied each live change exactly once at Publish, and
// the shard routes its buffered copies here, in publish order, WITHOUT
// touching the live base tables.
func (b *Broker) routeDeferred(buf []ingest) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, in := range buf {
		b.obs.observePublish()
		if err := b.route(in.table, in.mod); err != nil {
			return fmt.Errorf("deferred publish on %q: %w", in.table, err)
		}
	}
	return nil
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
// cost weight. The target shard routes its buffer first: a mid-run
// subscription's initial snapshot comes from the live tables, which
// already include every published modification, so routing the buffered
// ones after it would count them twice.
func (sb *ShardedBroker) Subscribe(cfg Subscription) error {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, ref := range sb.order {
		if ref.name == cfg.Name {
			return fmt.Errorf("pubsub: duplicate subscription %q", cfg.Name)
		}
	}
	sh := lightestShard(sb.shards)
	if err := sh.flush(); err != nil {
		return fmt.Errorf("pubsub: shard %d: %w", sh.id, err)
	}
	if err := sh.b.Subscribe(cfg); err != nil {
		return err
	}
	sh.subs++
	sh.weight += subWeight(cfg)
	sb.order = append(sb.order, subRef{name: cfg.Name, shard: sh.id})
	sb.routes = nil
	return nil
}

// Publish applies one modification to the shared base tables, exactly
// once, and buffers it on every shard owning a subscription that
// references the table. Routing waits for the next EndStep (or a
// Subscribe to that shard).
func (sb *ShardedBroker) Publish(table string, mod ivm.Mod) error {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	targets := sb.routesFor(table)
	if err := ivm.ApplyLive(sb.db, table, mod, len(targets) > 0); err != nil {
		return err
	}
	for _, sh := range targets {
		sh.buf = append(sh.buf, ingest{table: table, mod: mod})
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

// watchesTable is watches for callers outside the broker's lock (the
// sharded broker's routing cache).
func (b *Broker) watchesTable(table string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.watches(table)
}

// EndStep closes a time step across every shard: one goroutine per shard
// routes the shard's buffer and steps its own Broker (policies drain
// delta queues, conditions fire, degradation heals) in parallel with the
// others; the first error in shard order wins. The merge then
// reassembles the notifications into global registration order —
// exactly the order the serial broker would have emitted.
func (sb *ShardedBroker) EndStep() ([]Notification, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	notes := make([][]Notification, len(sb.shards))
	errs := make([]error, len(sb.shards))
	var wg sync.WaitGroup
	for i, sh := range sb.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = sh.flush(); errs[i] == nil {
				notes[i], errs[i] = sh.b.EndStep()
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pubsub: shard %d: %w", i, err)
		}
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

// ownerBroker finds the broker of the shard owning a subscription, for
// the reads that do not depend on routing: it takes sb.mu for the lookup
// only, and the broker's accessors lock themselves.
func (sb *ShardedBroker) ownerBroker(name string) (*Broker, error) {
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
func (sb *ShardedBroker) each(f func(b *Broker)) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, sh := range sb.shards {
		f(sh.b)
	}
}

// Result returns the (possibly stale) current content of a subscription.
func (sb *ShardedBroker) Result(name string) ([]storage.Row, error) {
	b, err := sb.ownerBroker(name)
	if err != nil {
		return nil, err
	}
	return b.Result(name)
}

// TotalCost returns the accumulated model maintenance cost of a
// subscription.
func (sb *ShardedBroker) TotalCost(name string) (float64, error) {
	b, err := sb.ownerBroker(name)
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
	// QueueDepth counts the modifications published to the shard since
	// the last barrier and not yet routed.
	QueueDepth int
}

// ShardStats snapshots every shard's load, in shard order.
func (sb *ShardedBroker) ShardStats() []ShardStat {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	out := make([]ShardStat, len(sb.shards))
	for i, sh := range sb.shards {
		out[i] = ShardStat{Shard: sh.id, Subscriptions: sh.subs, Weight: sh.weight, QueueDepth: len(sh.buf)}
	}
	return out
}

// SetStoreOpener installs a durable-store opener on every shard. A
// subscription's namespace is its name, unique across shards, so one
// opener rooted at a single directory gives every subscription its own
// subtree. Install before subscribing, like the serial broker's
// SetStoreOpener.
func (sb *ShardedBroker) SetStoreOpener(open durable.Opener) {
	sb.each(func(b *Broker) { b.SetStoreOpener(open) })
}

// errShardedShared refuses the shared graph under the sharded broker: a
// shard routes a step's publishes at EndStep, after later live writes,
// and the graph reads each modification's rows from the live table it
// must just have written.
var errShardedShared = errors.New("pubsub: shared dataflow is incompatible with a sharded broker")

// SetSharedDataflow refuses to switch the shards onto the shared graph
// (errShardedShared); switching it off is a no-op.
func (sb *ShardedBroker) SetSharedDataflow(on bool) error {
	if on {
		return errShardedShared
	}
	return nil
}

// DataflowStats is the zero value: no shard hosts a shared graph.
func (sb *ShardedBroker) DataflowStats() dataflow.GraphStats { return dataflow.GraphStats{} }

// DurabilityStats sums the durable-store counters across every shard's
// subscriptions.
func (sb *ShardedBroker) DurabilityStats() durable.Stats {
	var total durable.Stats
	sb.each(func(b *Broker) { total.Add(b.DurabilityStats()) })
	return total
}

// SetCheckpointEvery sets every shard's checkpoint cadence in steps.
func (sb *ShardedBroker) SetCheckpointEvery(n int) {
	sb.each(func(b *Broker) { b.SetCheckpointEvery(n) })
}

// SetObs attaches an observability sink to every shard's Broker: the
// shards report into the serial broker's own series, which the registry
// dedupes or, for what each shard's collect function reads, sums, so a
// counter reads the sum over shards. A nil registry detaches everything.
func (sb *ShardedBroker) SetObs(reg *obs.Registry, tr *obs.Tracer) {
	sb.each(func(b *Broker) { b.SetObs(reg, tr) })
}
