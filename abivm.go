// Package abivm is an asymmetric batch incremental view maintenance
// library: a reproduction of "Asymmetric Batch Incremental View
// Maintenance" (He, Xie, Yang, Yu; ICDE 2005) as a usable system.
//
// A materialized view over several base tables is kept up to date by
// batch-processing modifications from per-table delta queues. Under a
// response-time constraint C — "a refresh must always complete within
// cost C" — the library schedules which delta tables to drain and when,
// exploiting asymmetries between the per-table maintenance cost functions
// (an indexed join side is cheap to process per modification; an
// unindexed side pays a large per-batch setup and so profits from
// batching). Scheduling policies range from the traditional symmetric
// NAIVE flush to the paper's ONLINE heuristic and precomputed optimal
// LGM plans found by A* search.
//
// Typical use:
//
//	db := storage-backed base tables (see internal/tpcr for a generator)
//	v, _ := abivm.NewView(db, query,
//	        abivm.WithConstraint(model, 25.0),
//	        abivm.WithPolicy(abivm.PolicyOnline))
//	v.Apply(abivm.UpdateRow("PS", key, newRow))  // live tables change now
//	v.EndStep()                                  // policy may drain queues
//	rows, _ := v.Refresh()                       // on demand, cost <= C
//
// A View is a one-subscription broker and runs the step loop a served
// subscription runs. The heavy lifting lives in the internal packages:
// internal/core (the problem model), internal/astar (optimal LGM plans),
// internal/policy (runtime policies), internal/pubsub (the step loop),
// internal/ivm (the maintenance engine), internal/storage + internal/exec
// + internal/plan (the relational engine), and internal/experiments (the
// paper's figures).
package abivm

import (
	"fmt"

	"abivm/internal/core"
	"abivm/internal/ivm"
	"abivm/internal/policy"
	"abivm/internal/pubsub"
	"abivm/internal/storage"
)

// Mod is one base-table modification addressed to a view's FROM alias.
type Mod = ivm.Mod

// InsertRow builds an insert modification.
func InsertRow(alias string, row storage.Row) Mod { return ivm.Insert(alias, row) }

// DeleteRow builds a delete modification by primary key.
func DeleteRow(alias string, key ...storage.Value) Mod { return ivm.Delete(alias, key...) }

// UpdateRow builds an update modification replacing the row at key.
func UpdateRow(alias string, key []storage.Value, row storage.Row) Mod {
	return ivm.Update(alias, key, row)
}

// PolicyKind selects the runtime scheduling policy.
type PolicyKind string

// Available policies.
const (
	// PolicyNaive is the traditional symmetric approach: drain every
	// delta queue whenever the constraint is violated.
	PolicyNaive PolicyKind = "naive"
	// PolicyOnline is the paper's Section 4.3 heuristic.
	PolicyOnline PolicyKind = "online"
	// PolicyOnlineMarginal is this library's marginal-rate refinement of
	// ONLINE (see internal/policy).
	PolicyOnlineMarginal PolicyKind = "online-marginal"
)

// Option configures a View.
type Option func(*config)

type config struct {
	model  *core.CostModel
	c      float64
	kind   PolicyKind
	custom policy.Policy
}

// WithConstraint sets the per-table cost model and the response-time
// constraint C. It is required: without a cost model the scheduler cannot
// know when the constraint would be violated. Cost functions typically
// come from calibration (internal/costmodel) or a database optimizer.
func WithConstraint(model *core.CostModel, c float64) Option {
	return func(cfg *config) {
		cfg.model = model
		cfg.c = c
	}
}

// WithPolicy selects a built-in scheduling policy (default PolicyOnline).
func WithPolicy(kind PolicyKind) Option {
	return func(cfg *config) { cfg.kind = kind }
}

// WithCustomPolicy installs a caller-provided policy implementation (for
// example an Adapt policy wrapping a precomputed plan, or an Oracle).
func WithCustomPolicy(p policy.Policy) Option {
	return func(cfg *config) { cfg.custom = p }
}

// View is a materialized view maintained under a response-time
// constraint: a pubsub.Broker holding one subscription whose condition
// never fires, so the content refreshes only on demand. The broker's step
// loop enforces the constraint, retries failed drains, and keeps the view
// recoverable from an in-memory redo log plus checkpoints. It is not
// safe for concurrent use.
type View struct {
	b       *pubsub.Broker
	model   *core.CostModel
	aliases []string
	tables  map[string]string // FROM alias -> base table
}

// sub names the view's one subscription on its broker.
const sub = "view"

// NewView parses the view query over the live database, snapshots
// replicas, computes the initial content, and attaches a scheduling
// policy. Configuration problems — a missing or mis-sized cost model, a
// constraint that is negative or NaN, an unknown policy — are returned
// as errors; it panics only if a custom policy installed with
// WithCustomPolicy panics in Reset.
func NewView(db *storage.DB, query string, opts ...Option) (*View, error) {
	cfg := config{kind: PolicyOnline}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.model == nil {
		return nil, fmt.Errorf("abivm: WithConstraint is required")
	}
	p, err := ivm.PlanView(query)
	if err != nil {
		return nil, err
	}
	pol := cfg.custom
	if pol == nil {
		switch cfg.kind {
		case PolicyNaive:
			pol = policy.NewNaive(cfg.model, cfg.c)
		case PolicyOnline:
			pol = policy.NewOnline(cfg.model, cfg.c, nil)
		case PolicyOnlineMarginal:
			pol = policy.NewOnlineMarginal(cfg.model, cfg.c, nil)
		default:
			return nil, fmt.Errorf("abivm: unknown policy %q", cfg.kind)
		}
	}
	b := pubsub.NewBroker(db)
	if err := b.Subscribe(pubsub.Subscription{
		Name: sub, Query: query, Condition: func(int) bool { return false },
		Model: cfg.model, QoS: cfg.c, Policy: pol,
	}); err != nil {
		return nil, err
	}
	v := &View{b: b, model: cfg.model, tables: make(map[string]string)}
	for _, src := range p.Sources {
		v.aliases = append(v.aliases, src.Alias)
		v.tables[src.Alias] = src.Table
	}
	return v, nil
}

// Aliases returns the view's FROM aliases; index i is table i of the
// cost model.
func (v *View) Aliases() []string { return v.aliases }

// Apply applies modifications to the live base tables immediately and
// queues them for deferred view maintenance.
func (v *View) Apply(mods ...Mod) error {
	for _, mod := range mods {
		table, ok := v.tables[mod.Alias]
		if !ok {
			return fmt.Errorf("abivm: unknown alias %q", mod.Alias)
		}
		if err := v.b.Publish(table, mod); err != nil {
			return err
		}
	}
	return nil
}

// EndStep closes the current time step: the policy observes the step's
// arrivals and may drain delta queues to keep the refresh cost within the
// constraint. It returns the action taken (modifications processed per
// table) and its model cost. A policy action that is out of range, or
// that leaves the refresh cost above the constraint, is returned as an
// error; it panics only if a custom policy panics in Act.
func (v *View) EndStep() (core.Vector, float64, error) {
	before := v.Pending()
	if _, err := v.b.EndStep(); err != nil {
		return nil, 0, err
	}
	act := before.Sub(v.Pending())
	cost := 0.0
	for i, k := range act {
		cost += v.model.TableCost(i, k)
	}
	return act, cost, nil
}

// Refresh drains every delta queue and returns the up-to-date view
// content. Thanks to the constraint maintained by EndStep, the model cost
// of a refresh never exceeds C. Engine failures are returned as errors;
// it panics only if the pending counts are corrupted (negative), which
// the engine never produces.
func (v *View) Refresh() ([]storage.Row, float64, error) {
	n, err := v.b.Refresh(sub)
	if err != nil {
		return nil, 0, err
	}
	return n.Rows, n.RefreshCost, nil
}

// Result returns the view content as of the last processed batches
// (possibly stale with respect to the live tables); it panics only if
// the view's subscription is gone from its broker.
func (v *View) Result() []storage.Row { return must(v.b.Result(sub)) }

// Pending returns the per-table delta queue sizes; it panics only if the
// view's subscription is gone from its broker.
func (v *View) Pending() core.Vector { return core.Vector(must(v.b.Health(sub)).Pending) }

// RefreshCost returns the model cost a refresh would incur right now;
// the library keeps it at or below the constraint between steps. It
// panics only if the cost model arity stops matching the view's tables,
// a state NewView rules out.
func (v *View) RefreshCost() float64 { return v.model.Total(v.Pending()) }

// TotalCost returns the accumulated model cost of all maintenance work;
// it panics only if the view's subscription is gone from its broker.
func (v *View) TotalCost() float64 { return must(v.b.TotalCost(sub)) }

// must unwraps a broker read of the view's own subscription. NewView
// registered it and nothing here removes it, so an error is a broken
// invariant.
func must[T any](x T, err error) T {
	if err != nil {
		panic(err)
	}
	return x
}
