package pubsub

import (
	"fmt"

	"abivm/internal/durable"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// classicEngine is the per-view engine: one ivm.Maintainer over private
// view-consistent replicas, recoverable from a redo log plus an
// incremental checkpoint chain (a base segment and the deltas since).
// Both live in memory; with a durable.Store behind them every record and
// segment is mirrored to disk and a crash recovers from the files,
// through the store's corruption-hardened ladder, instead.
type classicEngine struct {
	// Maintainer is the live view, with its redo log attached; Recover
	// replaces it (and, on the disk tier, the log and chain with it).
	*ivm.Maintainer
	chain *ivm.CheckpointChain
	store *durable.Store // nil: the in-memory tier

	// What a recovery rebuilds from and re-attaches.
	db    *storage.DB
	query string
	inj   fault.Injector
	ms    *ivm.Metrics
}

// newClassicEngine builds the engine over the namespace's disk store, or
// in memory when store is nil. The store is attached before the base
// checkpoint, so the very first base segment already lands in files and a
// crash before the first step recovers from them.
func newClassicEngine(db *storage.DB, query, ns string, store *durable.Store) (*classicEngine, error) {
	e := &classicEngine{db: db, query: query, store: store}
	if err := e.build(ns); err != nil {
		return nil, err
	}
	return e, nil
}

// build is the one place a classic view is wired, at Subscribe and on a
// fallback recovery: a maintainer over the live tables, its redo log and
// chain mirrored to the store if any, metrics attached, and the base
// checkpoint taken.
func (e *classicEngine) build(ns string) error {
	m, err := ivm.New(e.db, e.query)
	if err != nil {
		return err
	}
	e.Maintainer, e.chain = m, ivm.NewCheckpointChain(ivm.DefaultChainDepth)
	m.AttachWAL(ivm.NewWAL())
	m.SetNamespace(ns)
	if e.store != nil {
		m.WAL().SetSink(e.store)
		e.chain.SetStore(e.store)
	}
	e.SetMetrics(e.ms)
	if err := e.chain.Checkpoint(m); err != nil {
		return fmt.Errorf("base checkpoint: %w", err)
	}
	return nil
}

// Arrive queues and logs the modification. The call is on the concrete
// maintainer, so its variadic slice stays on the stack.
func (e *classicEngine) Arrive(mod ivm.Mod) error { return e.ApplyDeferred(mod) }

// Checkpoint extends the chain — a small delta segment in the steady
// state, a full base when the chain is at depth and rolls over.
func (e *classicEngine) Checkpoint() error {
	if err := e.chain.Checkpoint(e.Maintainer); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := e.TruncateWAL(e.chain.TipLSN()); err != nil {
		return fmt.Errorf("wal truncation: %w", err)
	}
	return nil
}

// Recover rebuilds the maintainer. In memory the chain and log survive
// the simulated crash and the redo is exact; recovery validates the
// chain's namespace, so a chain replayed into another subscription's
// maintainer fails before any state is rebuilt.
// On disk the in-memory log and chain die with the process and
// everything is rebuilt from the store's files. When those are too
// damaged to replay, the store resets itself and the engine is built
// afresh over the live tables, re-seeding the store — a full refresh.
func (e *classicEngine) Recover() (fallback bool, err error) {
	ns := e.Namespace()
	if e.store == nil {
		m, err := ivm.RecoverChainNamespaced(e.db, e.query, ns, e.chain, e.WAL(), e.ms)
		if err != nil {
			return false, err
		}
		e.Maintainer = m
	} else if rec, err := e.store.Recover(e.db, e.query, ivm.DefaultChainDepth, e.ms); err != nil {
		return false, fmt.Errorf("disk: %w", err)
	} else if fallback = rec.Fallback; !fallback {
		e.Maintainer, e.chain = rec.M, rec.Chain
	} else if err := e.build(ns); err != nil {
		return false, fmt.Errorf("disk fallback: %w", err)
	}
	e.Maintainer.SetInjector(e.inj)
	return fallback, nil
}

func (e *classicEngine) WALLen() int { return e.WAL().Len() }

func (e *classicEngine) SetInjector(inj fault.Injector) {
	e.inj = inj
	e.Maintainer.SetInjector(inj)
}

// SetMetrics attaches the bundle to the maintainer, the one part that
// carries it; every recovery hands it on to the maintainer it rebuilds.
func (e *classicEngine) SetMetrics(ms *ivm.Metrics) {
	e.ms = ms
	e.Maintainer.SetMetrics(ms)
}
