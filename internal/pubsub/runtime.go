package pubsub

import (
	"abivm/internal/durable"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/obs"
	"abivm/internal/storage"
)

// Runtime is the one surface the serial Broker and the ShardedBroker
// share: whatever drives a pub/sub workload — the chaos harness, the demo
// workload, `abivm serve` — is written against it and never asks which
// broker, engine or durability tier it holds.
type Runtime interface {
	Subscribe(Subscription) error
	Publish(table string, mod ivm.Mod) error
	EndStep() ([]Notification, error)
	Close()

	Subscriptions() []string
	Result(name string) ([]storage.Row, error)
	TotalCost(name string) (float64, error)
	Health(name string) (Health, error)
	DurabilityStats() durable.Stats

	SetObs(reg *obs.Registry, tr *obs.Tracer)
	SetCheckpointEvery(n int)
	SetStoreOpener(open durable.Opener)
	SetSharedDataflow(on bool) error
}

// RuntimeConfig describes one demo runtime: which broker, which engine,
// which durability tier, which faults, which subscriptions. The zero
// choices are the serial broker, per-view maintainers, in-memory
// durability, no faults and one aggregate subscription per region of
// Spec.
type RuntimeConfig struct {
	// Seed seeds a DemoWorkload's event stream; NewRuntime does not read it.
	Seed int64
	// Spec sizes the stations/sales base tables and names the regions.
	Spec WorkloadSpec
	// Shards selects the broker: 0 the serial Broker, n >= 1 a
	// ShardedBroker with n shards.
	Shards int
	// Shared puts the subscriptions on the shared delta-dataflow graph
	// (one per shard) instead of per-view maintainers.
	Shared bool
	// Opener, when set, backs every subscription with a durable store
	// under its namespace. Not available with Shared.
	Opener durable.Opener
	// ChainDepth is how many incremental delta segments a per-view
	// maintainer's checkpoint chain accumulates before rolling over to a
	// fresh full base, fixed for the runtime's life. 0 selects
	// ivm.DefaultChainDepth; a negative depth keeps no chain — every
	// checkpoint writes a full base.
	ChainDepth int
	// Injectors builds shard i's fault injector (see SetInjectors); the
	// serial broker takes shard 0's. Nil runs fault-free.
	Injectors func(shard int) fault.Injector
	// Subscribe registers the subscriptions on the configured runtime; db
	// is the demo database underneath it (what a catalog compiles and
	// calibrates against). Nil registers the spec's demo subscriptions.
	Subscribe func(db *storage.DB, rt Runtime) error
}

// NewRuntime builds the demo database and, over it, the runtime cfg
// describes, fully subscribed. Close it when done.
func NewRuntime(cfg RuntimeConfig) (Runtime, error) {
	db, err := DemoDB(cfg.Spec)
	if err != nil {
		return nil, err
	}
	depth := cfg.ChainDepth
	switch {
	case depth == 0:
		depth = ivm.DefaultChainDepth
	case depth < 0:
		depth = 0
	}
	var rt Runtime
	if cfg.Shards > 0 {
		sb := NewShardedBroker(db, ShardOptions{Shards: cfg.Shards})
		sb.each(func(_ int, b *Broker) { b.chainDepth = depth })
		sb.SetInjectors(cfg.Injectors)
		rt = sb
	} else {
		b := NewBroker(db)
		b.chainDepth = depth
		if cfg.Injectors != nil {
			b.SetInjector(cfg.Injectors(0))
		}
		rt = b
	}
	rt.SetStoreOpener(cfg.Opener)
	if cfg.Shared {
		err = rt.SetSharedDataflow(true)
	}
	if err == nil && cfg.Subscribe != nil {
		err = cfg.Subscribe(db, rt)
	} else if err == nil {
		err = subscribeDemo(cfg.Spec, rt)
	}
	if err != nil {
		rt.Close()
		return nil, err
	}
	return rt, nil
}

// subscribeDemo registers one aggregate subscription per region of spec.
func subscribeDemo(spec WorkloadSpec, rt Runtime) error {
	subs, err := demoSubscriptionsSpec(spec)
	if err != nil {
		return err
	}
	for _, sc := range subs {
		if err := rt.Subscribe(sc); err != nil {
			return err
		}
	}
	return nil
}
