package pubsub

import (
	"fmt"
	"strconv"
	"sync"

	"abivm/internal/core"
	"abivm/internal/dataflow"
	"abivm/internal/durable"
	"abivm/internal/fault"
	"abivm/internal/ivm"
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
	so  *shardObs

	// The assignment load lightestShard balances.
	subs   int
	weight float64
}

// ShardedBroker is the sharded broker runtime: N serial Brokers over one
// shared database, stepped in parallel. Subscriptions are partitioned
// across the shards, each a full serial Broker with its own maintainers,
// WAL/checkpoint namespace, retry/degradation state, and fault injector.
// Publish applies each live-table change exactly once and buffers the
// modification on every shard that watches the table — an arrival does no
// work, it only adds to the paper's d_t. EndStep routes each shard's
// buffer and steps the shard, one goroutine per shard, then merges the
// notifications back into global registration order — which is what
// makes a single-shard run byte-identical to the serial broker, every
// observable output included (notifications, results, health, costs).
// All methods are safe for concurrent use and serialize on the broker's
// own lock; no goroutine outlives the EndStep that started it.
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
		b := NewBroker(db)
		b.ns = "shard" + strconv.Itoa(i)
		b.shardLabel = strconv.Itoa(i)
		sb.shards = append(sb.shards, &shard{id: i, b: b})
	}
	return sb
}

// Close releases what the broker holds outside the garbage collector's
// reach — nothing: like the serial Broker it runs no goroutine between
// calls. It exists so a Runtime can be closed without asking which
// broker it is.
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
	sh.so.observeDepth(0)
	return err
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
	sh.so.observeLoad(sh)
	return nil
}

// Publish applies one modification to the shared base tables, exactly
// once, and buffers it on every shard owning a subscription that
// references the table. Routing waits for the next EndStep (or a read
// that needs it: Subscribe, Health).
func (sb *ShardedBroker) Publish(table string, mod ivm.Mod) error {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	targets := sb.routesFor(table)
	if err := applyLive(sb.db, table, mod, len(targets) > 0); err != nil {
		return err
	}
	for _, sh := range targets {
		sh.buf = append(sh.buf, ingest{table: table, mod: mod})
		sh.so.observeDepth(len(sh.buf))
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

// owner finds the shard owning a subscription. Caller holds sb.mu.
func (sb *ShardedBroker) owner(name string) (*shard, error) {
	for _, ref := range sb.order {
		if ref.name == name {
			return sb.shards[ref.shard], nil
		}
	}
	return nil, fmt.Errorf("pubsub: no subscription %q", name)
}

// ownerBroker is owner for the reads that do not depend on routing: it
// takes sb.mu for the lookup only, and the broker's accessors lock
// themselves.
func (sb *ShardedBroker) ownerBroker(name string) (*Broker, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sh, err := sb.owner(name)
	if err != nil {
		return nil, err
	}
	return sh.b, nil
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
// its owning shard after that shard routes its buffer — so it equals the
// serial broker's Health at every point of a workload, mid-step
// included. Safe to call while the workload runs.
func (sb *ShardedBroker) Health(name string) (Health, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sh, err := sb.owner(name)
	if err != nil {
		return Health{}, err
	}
	if err := sh.flush(); err != nil {
		return Health{}, fmt.Errorf("pubsub: shard %d: %w", sh.id, err)
	}
	return sh.b.Health(name)
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

// SetInjectors installs per-shard fault injectors: factory(i) builds
// shard i's injector, so each shard owns an independent deterministic
// fault stream (a single shared *fault.Seeded would be both racy and
// schedule-dependent across shards stepping in parallel). A nil factory
// disables injection everywhere. Convention: give shard i a seed derived
// from (base, i) with shard 0 getting the base seed, so a 1-shard faulted
// run replays a serial broker seeded the same way.
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

// SetCheckpointEvery sets every shard's checkpoint cadence in steps.
func (sb *ShardedBroker) SetCheckpointEvery(n int) {
	sb.each(func(_ int, b *Broker) { b.SetCheckpointEvery(n) })
}
