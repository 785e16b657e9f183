package pubsub

import (
	"fmt"
	"math/rand"
	"strings"

	"abivm/internal/durable"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// WorkloadSpec sizes the demo/chaos workload: how many stations and
// seed sales rows the base tables start with, and the region partition
// the subscriptions aggregate over (one subscription per region). The
// legacy two-region spec is DefaultWorkloadSpec; ScaledWorkloadSpec
// widens it so a sharded broker has enough subscriptions to spread.
type WorkloadSpec struct {
	Stations  int
	SalesRows int
	Regions   []string
	// NotifyEvery, when > 0, gives every subscription the same Every(n)
	// condition instead of the staggered cadence cycle — the sharded
	// throughput benchmark uses 1 so each step refreshes every
	// subscription.
	NotifyEvery int
}

// DefaultWorkloadSpec is the original chaos workload: 8 stations, 40
// seed sales rows, EAST/WEST subscriptions. Every draw of the event
// generator under this spec is byte-identical to the pre-spec generator,
// which keeps historical chaos seeds reproducible.
func DefaultWorkloadSpec() WorkloadSpec {
	return WorkloadSpec{Stations: 8, SalesRows: 40, Regions: []string{"EAST", "WEST"}}
}

// ScaledWorkloadSpec widens the workload to n regions (R00, R01, …) with
// four stations and twenty seed sales rows per region — the shape the
// sharded runtime is benchmarked and chaos-tested on.
func ScaledWorkloadSpec(n int) WorkloadSpec {
	if n < 1 {
		n = 1
	}
	regions := make([]string, n)
	for i := range regions {
		regions[i] = fmt.Sprintf("R%02d", i)
	}
	return WorkloadSpec{Stations: 4 * n, SalesRows: 20 * n, Regions: regions}
}

// eventGen produces the chaos workload's modification stream one step at
// a time: a deterministic function of the seed, usable both pregenerated
// (the chaos harness scripts a fixed horizon up front so baseline and
// faulted runs share one stream) and open-ended (the serve demo steps it
// forever).
type eventGen struct {
	rng  *rand.Rand
	spec WorkloadSpec
	live []int64
	next int64
}

func newEventGen(seed int64) *eventGen {
	return newEventGenSpec(seed, DefaultWorkloadSpec())
}

func newEventGenSpec(seed int64, spec WorkloadSpec) *eventGen {
	g := &eventGen{rng: rand.New(rand.NewSource(seed)), spec: spec, next: int64(spec.SalesRows)}
	g.live = make([]int64, 0, 2*spec.SalesRows)
	for i := int64(0); i < int64(spec.SalesRows); i++ {
		g.live = append(g.live, i)
	}
	return g
}

// step generates one step's modifications: 1-2 sales inserts, sometimes
// a sales delete, sometimes a station region flip.
func (g *eventGen) step() []chaosEvent {
	var evs []chaosEvent
	for n := 1 + g.rng.Intn(2); n > 0; n-- {
		row := storage.Row{storage.I(g.next), storage.I(int64(g.rng.Intn(g.spec.Stations))), storage.F(float64(1 + g.rng.Intn(20)))}
		evs = append(evs, chaosEvent{table: "sales", mod: ivm.Insert("", row)})
		g.live = append(g.live, g.next)
		g.next++
	}
	if g.rng.Float64() < 0.30 && len(g.live) > g.spec.Stations {
		i := g.rng.Intn(len(g.live))
		key := g.live[i]
		g.live = append(g.live[:i], g.live[i+1:]...)
		evs = append(evs, chaosEvent{table: "sales", mod: ivm.Delete("", storage.I(key))})
	}
	if g.rng.Float64() < 0.25 {
		k := int64(g.rng.Intn(g.spec.Stations))
		region := g.spec.Regions[g.rng.Intn(len(g.spec.Regions))]
		evs = append(evs, chaosEvent{table: "stations", mod: ivm.Update("",
			[]storage.Value{storage.I(k)}, storage.Row{storage.I(k), storage.S(region)})})
	}
	return evs
}

// demoConditionCycle staggers the per-region notification cadences so
// conditions fire on different steps; the first two entries reproduce
// the legacy east (Every 7) / west (Every 11) pair.
var demoConditionCycle = []int{7, 11, 5, 13, 6, 9, 12, 8}

// demoSubscriptionsSpec builds one aggregate subscription per region of
// the spec: name = lowercase region, staggered notification cadence,
// the shared QoS bound, and a fresh cost model each.
func demoSubscriptionsSpec(spec WorkloadSpec) ([]Subscription, error) {
	subs := make([]Subscription, len(spec.Regions))
	for i, region := range spec.Regions {
		model, err := chaosModel()
		if err != nil {
			return nil, err
		}
		every := demoConditionCycle[i%len(demoConditionCycle)]
		if spec.NotifyEvery > 0 {
			every = spec.NotifyEvery
		}
		subs[i] = Subscription{
			Name:      strings.ToLower(region),
			Query:     regionQuery(region),
			Condition: Every(every),
			Model:     model,
			QoS:       chaosQoS,
		}
	}
	return subs, nil
}

// DemoWorkload is a self-contained, endlessly steppable pub/sub workload
// over the chaos harness's stations/sales schema with the east/west
// aggregate subscriptions. `abivm serve` drives one to have live data
// behind its metrics endpoint; everything it does is deterministic in
// the seed (including retry-backoff jitter).
type DemoWorkload struct {
	// Broker is the underlying broker; attach observability with SetObs
	// and inspect subscriptions through the usual accessors.
	Broker *Broker

	gen *eventGen
}

// NewDemoWorkload builds the demo database, broker, and subscriptions.
// A non-nil injector puts the workload into chaos mode (retries,
// degradations, crash recoveries all live).
func NewDemoWorkload(seed int64, inj fault.Injector) (*DemoWorkload, error) {
	return NewDemoWorkloadSpec(seed, DefaultWorkloadSpec(), inj)
}

// NewDemoWorkloadSpec is NewDemoWorkload over an arbitrary workload
// spec: base tables and one subscription per region from spec, on a
// serial broker. The durability benchmarks use it to size the replica
// state a checkpoint has to cover.
func NewDemoWorkloadSpec(seed int64, spec WorkloadSpec, inj fault.Injector) (*DemoWorkload, error) {
	return NewDemoWorkloadDurable(seed, spec, inj, nil)
}

// NewDemoWorkloadDurable is NewDemoWorkloadSpec with disk-backed
// durability: a non-nil opener gives every subscription a durable store
// (installed before the subscriptions exist, so their initial
// checkpoints land on disk).
func NewDemoWorkloadDurable(seed int64, spec WorkloadSpec, inj fault.Injector, opener durable.Opener) (*DemoWorkload, error) {
	db, err := DemoDB(spec)
	if err != nil {
		return nil, err
	}
	return NewDemoWorkloadOn(db, seed, spec, inj, opener, func(b *Broker) error {
		subs, err := demoSubscriptionsSpec(spec)
		if err != nil {
			return err
		}
		for _, sc := range subs {
			if err := b.Subscribe(sc); err != nil {
				return err
			}
		}
		return nil
	})
}

// NewDemoWorkloadShared is NewDemoWorkloadSpec on the shared
// delta-dataflow runtime: the demo subscriptions compile into one
// hash-consed operator graph (SetSharedDataflow) instead of per-view
// maintainers. In-memory durability only — the shared runtime has no
// per-operator disk checkpoint yet.
func NewDemoWorkloadShared(seed int64, spec WorkloadSpec, inj fault.Injector) (*DemoWorkload, error) {
	db, err := DemoDB(spec)
	if err != nil {
		return nil, err
	}
	return NewDemoWorkloadOn(db, seed, spec, inj, nil, func(b *Broker) error {
		if err := b.SetSharedDataflow(true); err != nil {
			return err
		}
		subs, err := demoSubscriptionsSpec(spec)
		if err != nil {
			return err
		}
		for _, sc := range subs {
			if err := b.Subscribe(sc); err != nil {
				return err
			}
		}
		return nil
	})
}

// DemoDB builds the demo workload's deterministic base database
// (stations and sales, populated per spec) without a broker on top. The
// compiler front end calibrates catalog views against it, and tests use
// it to hand-wire comparison brokers.
func DemoDB(spec WorkloadSpec) (*storage.DB, error) { return chaosDBSpec(spec) }

// NewDemoWorkloadOn assembles a demo workload over an existing demo
// database with caller-provided subscriptions: the broker is configured
// (retry seed, optional durability, optional injector) and then handed
// to subscribe to register whatever subscriptions the caller wants —
// `abivm serve -catalog` compiles a views.sql catalog and registers the
// compiled subscriptions here. db must come from DemoDB(spec) (or match
// its schema); the event stream publishes into stations and sales.
func NewDemoWorkloadOn(db *storage.DB, seed int64, spec WorkloadSpec, inj fault.Injector, opener durable.Opener, subscribe func(*Broker) error) (*DemoWorkload, error) {
	b := NewBroker(db)
	b.SetRetrySeed(seed)
	if opener != nil {
		b.SetStoreOpener(opener)
	}
	if inj != nil {
		b.SetInjector(inj)
	}
	if err := subscribe(b); err != nil {
		return nil, err
	}
	return &DemoWorkload{Broker: b, gen: newEventGenSpec(seed, spec)}, nil
}

// Step publishes one generated step of modifications and closes the
// broker step, returning any notifications that fired.
func (w *DemoWorkload) Step() ([]Notification, error) {
	for _, ev := range w.gen.step() {
		if err := w.Broker.Publish(ev.table, ev.mod); err != nil {
			return nil, fmt.Errorf("pubsub: demo publish %s: %w", ev.table, err)
		}
	}
	return w.Broker.EndStep()
}

// ShardedDemoWorkload is DemoWorkload on the sharded runtime: the same
// deterministic event stream feeding a ShardedBroker, with one
// subscription per region of the spec spread across the shards by the
// assignment policy. `abivm serve -shards N` drives one.
type ShardedDemoWorkload struct {
	// Broker is the underlying sharded broker; callers own its lifecycle
	// through Close.
	Broker *ShardedBroker

	gen *eventGen
}

// NewShardedDemoWorkload builds the sharded demo: base tables and
// subscriptions from spec, shards workers, per-shard retry seeds derived
// from seed, and — when factory is non-nil — one independent fault
// injector per shard.
func NewShardedDemoWorkload(seed int64, shards int, spec WorkloadSpec, factory func(shard int) fault.Injector) (*ShardedDemoWorkload, error) {
	return NewShardedDemoWorkloadDurable(seed, shards, spec, factory, nil)
}

// NewShardedDemoWorkloadDurable is NewShardedDemoWorkload with
// disk-backed durability; each shard prefixes its subscriptions'
// store namespaces with "shard<i>/".
func NewShardedDemoWorkloadDurable(seed int64, shards int, spec WorkloadSpec, factory func(shard int) fault.Injector, opener durable.Opener) (*ShardedDemoWorkload, error) {
	db, err := chaosDBSpec(spec)
	if err != nil {
		return nil, err
	}
	sb := NewShardedBroker(db, ShardOptions{Shards: shards})
	sb.SetRetrySeed(seed)
	if opener != nil {
		sb.SetStoreOpener(opener)
	}
	if factory != nil {
		sb.SetInjectors(factory)
	}
	subs, err := demoSubscriptionsSpec(spec)
	if err != nil {
		sb.Close()
		return nil, err
	}
	for _, sc := range subs {
		if err := sb.Subscribe(sc); err != nil {
			sb.Close()
			return nil, err
		}
	}
	return &ShardedDemoWorkload{Broker: sb, gen: newEventGenSpec(seed, spec)}, nil
}

// Step publishes one generated step of modifications and closes the
// step across every shard, returning the merged notifications.
func (w *ShardedDemoWorkload) Step() ([]Notification, error) {
	for _, ev := range w.gen.step() {
		if err := w.Broker.Publish(ev.table, ev.mod); err != nil {
			return nil, fmt.Errorf("pubsub: demo publish %s: %w", ev.table, err)
		}
	}
	return w.Broker.EndStep()
}

// Close stops the shard workers.
func (w *ShardedDemoWorkload) Close() { w.Broker.Close() }

// SeededShardInjectors returns a per-shard injector factory: shard i
// gets an independent deterministic fault.Seeded stream derived from
// (seed, i), with shard 0 receiving the base seed — so a one-shard
// faulted run replays a serial broker seeded identically.
func SeededShardInjectors(seed int64, rates fault.Rates) func(shard int) fault.Injector {
	return func(shard int) fault.Injector {
		return fault.NewSeeded(seed+int64(shard)*1000003, rates)
	}
}
