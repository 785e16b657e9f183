package pubsub

import (
	"abivm/internal/durable"
	"abivm/internal/fault"
	"abivm/internal/storage"
)

// RuntimeConfig describes one demo broker: which engine, which
// durability tier, which faults, which subscriptions. The zero choices
// are per-view maintainers, in-memory durability, no faults and one
// aggregate subscription per region of Spec.
type RuntimeConfig struct {
	// Spec sizes the stations/sales base tables and names the regions.
	Spec WorkloadSpec
	// Shared puts the subscriptions on the shared delta-dataflow graph
	// instead of per-view maintainers.
	Shared bool
	// Opener, when set, backs every subscription with a durable store
	// under its namespace. Not available with Shared.
	Opener durable.Opener
	// Injector is the broker's fault injector (see SetInjector). Nil runs
	// fault-free.
	Injector fault.Injector
	// Subscribe registers the subscriptions on the configured broker; db
	// is the demo database underneath it (what a catalog compiles and
	// calibrates against). Nil registers the spec's demo subscriptions.
	Subscribe func(db *storage.DB, b *Broker) error
}

// NewRuntime builds the demo database and, over it, the broker cfg
// describes, fully subscribed.
func NewRuntime(cfg RuntimeConfig) (*Broker, error) {
	db, err := DemoDB(cfg.Spec)
	if err != nil {
		return nil, err
	}
	b := NewBroker(db)
	if cfg.Injector != nil {
		b.SetInjector(cfg.Injector)
	}
	b.SetStoreOpener(cfg.Opener)
	if cfg.Shared {
		if err := b.SetSharedDataflow(true); err != nil {
			return nil, err
		}
	}
	if cfg.Subscribe != nil {
		err = cfg.Subscribe(db, b)
	} else {
		err = subscribeDemo(cfg.Spec, b)
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// subscribeDemo registers one aggregate subscription per region of spec.
func subscribeDemo(spec WorkloadSpec, b *Broker) error {
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
}
