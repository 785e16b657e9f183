package costmodel

import (
	"fmt"
	"math/rand"

	"abivm/internal/ivm"
	"abivm/internal/pubsub"
	"abivm/internal/storage"
)

// Sandbox is an isolated calibration environment for one view: the
// view's base tables cloned into a scratch database, a pubsub.Probe built
// over the clones, and one deterministic update generator per FROM
// alias. Calibration batches drain through the scratch probe only — the
// database the sandbox was built from is never written.
//
// The generated workload is pure updates (the paper's update workload):
// table sizes stay constant across samples, victims are drawn from the
// table's own key population, and replacement values are sampled from
// the column's existing value domain so join selectivities survive
// calibration. Everything is driven by a seeded generator, so two
// sandboxes with the same inputs and seed produce identical mod streams
// and therefore identical measurements.
type Sandbox struct {
	db   *storage.DB
	p    *pubsub.Probe
	gens map[string]func() ivm.Mod
}

// NewSandbox clones the base tables of the view query out of src and
// builds the scratch probe and per-alias generators. src is only
// read, and only during construction.
func NewSandbox(src *storage.DB, query string, seed int64) (*Sandbox, error) {
	p, err := ivm.PlanView(query)
	if err != nil {
		return nil, err
	}
	scratch := storage.NewDB()
	for _, s := range p.Sources {
		tbl, err := src.Table(s.Table)
		if err != nil {
			return nil, err
		}
		if _, err := storage.CloneTable(scratch, tbl); err != nil {
			return nil, err
		}
	}
	probe, err := pubsub.NewProbe(scratch, query)
	if err != nil {
		return nil, err
	}
	sb := &Sandbox{db: scratch, p: probe, gens: make(map[string]func() ivm.Mod)}
	for i, s := range p.Sources {
		gen, err := newUpdateGen(scratch.MustTable(s.Table), s.Alias, seed+int64(i)*1_000_003)
		if err != nil {
			return nil, err
		}
		sb.gens[s.Alias] = gen
	}
	return sb, nil
}

// Measure samples the alias's batch-cost curve f_i(k) at the given batch
// sizes inside the sandbox.
func (sb *Sandbox) Measure(alias string, ks []int, w storage.Weights) (*Measurement, error) {
	gen, ok := sb.gens[alias]
	if !ok {
		return nil, fmt.Errorf("costmodel: sandbox has no alias %q", alias)
	}
	return Measure(sb.p, alias, gen, ks, w)
}

// newUpdateGen builds a seeded pure-update generator for one base table.
// It snapshots the key population and per-column value domains at
// construction; each call picks a victim key, reads the row's current
// state from the (scratch) table, and replaces one non-key column with a
// value drawn from that column's original domain.
func newUpdateGen(tbl *storage.Table, alias string, seed int64) (func() ivm.Mod, error) {
	schema := tbl.Schema()
	if tbl.Len() == 0 {
		return nil, fmt.Errorf("costmodel: table %s is empty; cannot generate a calibration workload", schema.Name)
	}
	isKey := make(map[int]bool, len(schema.Key))
	for _, k := range schema.Key {
		isKey[k] = true
	}
	var nonKey []int
	for i := range schema.Columns {
		if !isKey[i] {
			nonKey = append(nonKey, i)
		}
	}
	if len(nonKey) == 0 {
		return nil, fmt.Errorf("costmodel: table %s is all key columns; updates cannot change it", schema.Name)
	}
	var keys [][]storage.Value
	domains := make([][]storage.Value, len(schema.Columns))
	tbl.Scan(func(r storage.Row) bool {
		keys = append(keys, r.Project(schema.Key))
		for _, c := range nonKey {
			domains[c] = append(domains[c], r[c])
		}
		return true
	})
	rng := rand.New(rand.NewSource(seed))
	return func() ivm.Mod {
		victim := keys[rng.Intn(len(keys))]
		cur, ok := tbl.Get(victim...)
		if !ok {
			// Unreachable for a pure-update workload (keys never leave the
			// table); guard so a future mixed workload fails loudly.
			panic(fmt.Sprintf("costmodel: victim key %v vanished from %s", victim, schema.Name))
		}
		row := cur.Clone()
		c := nonKey[rng.Intn(len(nonKey))]
		row[c] = domains[c][rng.Intn(len(domains[c]))]
		return ivm.Update(alias, victim, row)
	}, nil
}
