package pubsub

import (
	"abivm/internal/durable"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// viewEngine is everything the broker asks of the runtime behind one
// subscription — the paper's per-subscription contract (queue arrivals,
// drain k modifications of table i, report the state vector, refresh on
// demand) plus what keeps it recoverable. The broker's scheduling,
// retry, QoS and notification choreography runs against this interface
// only; how a view is maintained, made durable and recovered is decided
// by its two implementations: classicEngine (a per-view ivm.Maintainer
// with private replicas, redo log and checkpoint chain, optionally on
// disk) and sharedEngine (a sink on the broker's shared operator graph).
type viewEngine interface {
	// Aliases lists the view's FROM aliases; index i is the paper's table
	// R_i everywhere a vector is exchanged.
	Aliases() []string

	// Arrive accepts one modification whose live-table effect already
	// happened, under the view's own alias: from here on it counts in the
	// state vector and survives a crash of the engine, wherever the engine
	// keeps it. One Mod, not a variadic list — a variadic call through an
	// interface heap-allocates its slice on every routed modification.
	Arrive(mod ivm.Mod) error
	// PendingInto writes the state vector s (queued modifications per
	// alias) into dst, growing it only when too small.
	PendingInto(dst []int) []int
	// ProcessBatch drains the earliest k modifications of one alias into
	// the view, atomically: on error nothing changed and a retry restarts
	// from the pre-action state.
	ProcessBatch(alias string, k int) error
	// Result renders the view's current (possibly stale) content. Not a
	// read: it may reorder the engine's entry lists, so the broker calls
	// it under its exclusive lock.
	Result() []storage.Row

	// Checkpoint advances the recovery point to the current state and
	// truncates the WAL prefix it covers.
	Checkpoint() error
	// Recover drops the in-memory state and rebuilds it from the recovery
	// point plus the WAL. fallback reports that the durable artifacts were
	// too damaged for an exact redo and the view was recomputed from the
	// live tables instead — un-drained arrivals are gone.
	Recover() (fallback bool, err error)
	// Sync is the durability barrier: when it returns, every logged record
	// is as durable as the engine's tier can make it.
	Sync() error
	// WALLen is the number of redo-log records a recovery would replay —
	// those not yet covered by a checkpoint; DurableStats the disk tier's
	// counters (zero in memory).
	WALLen() int
	DurableStats() durable.Stats

	// SetInjector and SetMetrics (re)wire fault injection and the ivm
	// instrumentation bundle through every part of the engine; nil
	// detaches.
	SetInjector(fault.Injector)
	SetMetrics(ms *ivm.Metrics)
}
