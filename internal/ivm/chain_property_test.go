package ivm

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"abivm/internal/exec"
	"abivm/internal/obs"
	"abivm/internal/plan"
	"abivm/internal/storage"
)

// The chain-equivalence property: however a recovery point was laid out
// — a chain that rolls over to a fresh base written from the live
// replica, a chain deep enough never to roll over, or that deep chain
// folded offline by Compact at arbitrary moments — recovering from it
// yields the live maintainer, and the live maintainer's view is what
// the query means over its replicas.

// propertyViews share the aliases ps/s/n so one stream generator drives
// all of them: a MIN over the four-table join, a grouped
// COUNT/SUM/MIN, and a select-project-join with duplicate rows.
var propertyViews = []string{
	`SELECT MIN(ps.supplycost)
		FROM partsupp AS ps, supplier AS s, nation AS n, region AS r
		WHERE s.suppkey = ps.suppkey AND s.nationkey = n.nationkey
		AND n.regionkey = r.regionkey AND r.rname = 'MIDDLE EAST'`,
	`SELECT n.regionkey, COUNT(*) AS cnt, SUM(ps.supplycost) AS total, MIN(ps.supplycost) AS mn
		FROM partsupp AS ps, supplier AS s, nation AS n
		WHERE s.suppkey = ps.suppkey AND s.nationkey = n.nationkey
		GROUP BY n.regionkey`,
	`SELECT n.regionkey, ps.suppkey
		FROM partsupp AS ps, supplier AS s, nation AS n
		WHERE s.suppkey = ps.suppkey AND s.nationkey = n.nationkey`,
}

// storeCall is one ChainStore call as a recordingStore saw it.
type storeCall struct {
	base      bool
	from, lsn uint64
}

// recordingStore is a ChainStore that remembers the calls it accepts and
// the chain they built. While refuseBase or refuseDelta is set it refuses
// that kind of segment.
type recordingStore struct {
	calls                   []storeCall
	refuseBase, refuseDelta bool
	base                    []byte
	deltas                  [][]byte
}

func (s *recordingStore) PutBase(seg []byte, lsn uint64) error {
	if s.refuseBase {
		return fmt.Errorf("store refuses base at lsn %d", lsn)
	}
	s.calls = append(s.calls, storeCall{base: true, lsn: lsn})
	s.base, s.deltas = seg, nil
	return nil
}

func (s *recordingStore) PutDelta(seg []byte, from, lsn uint64) error {
	if s.refuseDelta {
		return fmt.Errorf("store refuses delta %d→%d", from, lsn)
	}
	s.calls = append(s.calls, storeCall{from: from, lsn: lsn})
	s.deltas = append(s.deltas, seg)
	return nil
}

// replicaKey canonicalizes the replica's logical content: every table's
// rows, slot order ignored.
func replicaKey(m *Maintainer) string {
	var sb strings.Builder
	for _, name := range m.replica.TableNames() {
		var rows []storage.Row
		m.replica.MustTable(name).Scan(func(r storage.Row) bool {
			rows = append(rows, r)
			return true
		})
		fmt.Fprintf(&sb, "%s{%s}", name, rowsKey(rows))
	}
	return sb.String()
}

// queuesKey renders the pending queues' content (not just their sizes).
func queuesKey(m *Maintainer) string {
	var sb strings.Builder
	for _, alias := range m.aliases {
		fmt.Fprintf(&sb, "%s%v", alias, m.deltas[alias])
	}
	return sb.String()
}

// evalOver evaluates the view query from scratch over db — the
// maintainer's replicas or the live tables — through internal/exec: the
// meaning the incrementally maintained content has to match.
func evalOver(t *testing.T, m *Maintainer, db *storage.DB) []storage.Row {
	t.Helper()
	var scratch storage.Stats
	op, err := plan.Compile(m.plan.View, nil, &plan.Options{Resolve: db.Table, Stats: &scratch})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// chainRun is one maintainer with its own WAL and chain; the property
// test drives three of them in lockstep over one live database.
type chainRun struct {
	m     *Maintainer
	wal   *WAL
	chain *CheckpointChain
}

func newChainRun(t *testing.T, db *storage.DB, view string, depth int) *chainRun {
	t.Helper()
	m, err := New(db, view)
	if err != nil {
		t.Fatal(err)
	}
	r := &chainRun{m: m, wal: NewWAL(), chain: NewCheckpointChain(depth)}
	m.AttachWAL(r.wal)
	return r
}

// streamGen produces the seeded modification stream: partsupp inserts,
// in-place updates and deletes, an insert and a delete of one key back to
// back, and dimension updates on supplier and nation.
type streamGen struct {
	rng    *rand.Rand
	nextPS int64
	livePS []int64
}

func (g *streamGen) next() []Mod {
	cost := func() storage.Value { return storage.F(float64(g.rng.Intn(400)) + g.rng.Float64()/3) }
	supp := func() storage.Value { return storage.I(int64(g.rng.Intn(6))) }
	insert := func() Mod {
		k := g.nextPS
		g.nextPS++
		g.livePS = append(g.livePS, k)
		return Insert("ps", storage.Row{storage.I(k), supp(), cost()})
	}
	remove := func(i int) Mod {
		k := g.livePS[i]
		g.livePS = append(g.livePS[:i], g.livePS[i+1:]...)
		return Delete("ps", storage.I(k))
	}
	switch op := g.rng.Intn(7); {
	case op == 0 || len(g.livePS) == 0:
		return []Mod{insert()}
	case op == 1:
		return []Mod{remove(g.rng.Intn(len(g.livePS)))}
	case op == 2:
		k := storage.I(g.livePS[g.rng.Intn(len(g.livePS))])
		return []Mod{Update("ps", []storage.Value{k}, storage.Row{k, supp(), cost()})}
	case op == 3:
		ins := insert()
		return []Mod{ins, remove(len(g.livePS) - 1)}
	case op == 4:
		k := storage.I(int64(g.rng.Intn(6)))
		return []Mod{Update("s", []storage.Value{k}, storage.Row{k, storage.S("S"), storage.I(int64(g.rng.Intn(4)))})}
	case op == 5:
		k := storage.I(int64(g.rng.Intn(4)))
		return []Mod{Update("n", []storage.Value{k}, storage.Row{k, storage.S("N"), storage.I(int64(g.rng.Intn(2)))})}
	default:
		return []Mod{insert(), insert()}
	}
}

func TestChainEquivalenceProperty(t *testing.T) {
	const neverRolls = 1 << 30
	for seed := int64(0); seed < 24; seed++ {
		for depth := 0; depth <= 4; depth++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(depth)))
			db := liveDB(t)
			view := propertyViews[int(seed)%len(propertyViews)]
			// roll owns the live tables (Apply); deep and folded only
			// observe the same stream (ApplyDeferred), as brokers do.
			roll := newChainRun(t, db, view, depth)
			deep := newChainRun(t, db, view, neverRolls)
			folded := newChainRun(t, db, view, neverRolls)
			runs := []*chainRun{roll, deep, folded}
			store := &recordingStore{}
			roll.chain.SetStore(store)
			ms := NewMetrics(obs.NewRegistry())
			roll.m.SetMetrics(ms)
			rollovers := int64(0)

			checkpoint := func() {
				wantBase := !(roll.chain.base != nil) || roll.chain.Depth() >= depth
				if wantBase && (roll.chain.base != nil) {
					rollovers++
				}
				prevTip := roll.chain.TipLSN()
				store.calls = store.calls[:0]
				for _, r := range runs {
					if err := r.chain.Checkpoint(r.m); err != nil {
						t.Fatalf("seed %d depth %d: checkpoint: %v", seed, depth, err)
					}
				}
				tip := roll.chain.TipLSN()
				want := storeCall{base: wantBase, lsn: tip}
				if !wantBase {
					want.from = prevTip
				}
				if len(store.calls) != 1 || store.calls[0] != want {
					t.Fatalf("seed %d depth %d: store saw %+v, want exactly %+v", seed, depth, store.calls, want)
				}
				if tip != roll.wal.LastLSN() || deep.chain.TipLSN() != tip || folded.chain.TipLSN() != tip {
					t.Fatalf("seed %d depth %d: tips %d/%d/%d, wal at %d", seed, depth,
						tip, deep.chain.TipLSN(), folded.chain.TipLSN(), roll.wal.LastLSN())
				}
				if got := roll.chain.Depth(); got > depth || (wantBase && got != 0) {
					t.Fatalf("seed %d depth %d: chain depth %d after checkpoint (base=%v)", seed, depth, got, wantBase)
				}
				if got := ms.CheckpointCompactions.Value(); got != rollovers {
					t.Fatalf("seed %d depth %d: compactions counter %d, want %d rollovers", seed, depth, got, rollovers)
				}
				if rng.Intn(2) == 0 {
					for _, r := range runs {
						if err := r.wal.TruncateThrough(r.chain.TipLSN()); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			recoverAll := func() {
				wantView, wantReplica, wantQueues := rowsKey(roll.m.Result()), replicaKey(roll.m), queuesKey(roll.m)
				if got := rowsKey(evalOver(t, roll.m, roll.m.replica)); got != wantView {
					t.Fatalf("seed %d depth %d: live view %s, query over its replicas %s", seed, depth, wantView, got)
				}
				for i, r := range runs {
					rec, err := RecoverChain(db, view, r.chain, r.wal)
					if err != nil {
						t.Fatalf("seed %d depth %d: recovering chain %d: %v", seed, depth, i, err)
					}
					if got := rowsKey(rec.Result()); got != wantView {
						t.Errorf("seed %d depth %d chain %d: recovered view %s, want %s", seed, depth, i, got, wantView)
					}
					if got := replicaKey(rec); got != wantReplica {
						t.Errorf("seed %d depth %d chain %d: recovered replica %s, want %s", seed, depth, i, got, wantReplica)
					}
					if got := queuesKey(rec); got != wantQueues {
						t.Errorf("seed %d depth %d chain %d: recovered queues %s, want %s", seed, depth, i, got, wantQueues)
					}
					if got := rowsKey(evalOver(t, rec, rec.replica)); got != wantView {
						t.Errorf("seed %d depth %d chain %d: query over recovered replicas %s, want %s", seed, depth, i, got, wantView)
					}
				}
				if t.Failed() {
					t.FailNow()
				}
			}

			checkpoint() // every chain starts from a base
			gen := &streamGen{rng: rng, nextPS: 100}
			for k := int64(0); k < 12; k++ {
				gen.livePS = append(gen.livePS, k)
			}
			for step := 0; step < 90; step++ {
				mods := gen.next()
				if err := apply(roll.m, mods...); err != nil {
					t.Fatalf("seed %d depth %d: %v", seed, depth, err)
				}
				for _, r := range runs[1:] {
					if err := r.m.ApplyDeferred(mods...); err != nil {
						t.Fatal(err)
					}
				}
				if rng.Intn(5) < 2 {
					// Drain a random prefix of a random non-empty queue.
					pending := roll.m.Pending()
					if i := rng.Intn(len(pending)); pending[i] > 0 {
						alias, k := roll.m.Aliases()[i], 1+rng.Intn(pending[i])
						for _, r := range runs {
							if err := r.m.ProcessBatch(alias, k); err != nil {
								t.Fatalf("seed %d depth %d: drain %s/%d: %v", seed, depth, alias, k, err)
							}
						}
					}
				}
				if rng.Intn(4) == 0 {
					checkpoint()
				}
				if rng.Intn(8) == 0 {
					if err := folded.chain.Compact(); err != nil {
						t.Fatalf("seed %d depth %d: compact: %v", seed, depth, err)
					}
				}
				if rng.Intn(12) == 0 {
					recoverAll()
				}
			}
			recoverAll()
			assertConsistent(t, roll.m)
		}
	}
}

// TestChainRolloverFailureLeavesChainIntact: when a checkpoint's segment
// cannot be encoded, or its store refuses it — the base of a rollover or
// a delta — the chain keeps its old base, deltas and tip, so it still
// recovers, and the dirty keys stay marked: the retry's segment carries
// them, and the chain the store holds recovers the live maintainer too.
func TestChainRolloverFailureLeavesChainIntact(t *testing.T) {
	for _, tc := range []struct {
		name string
		// segments is how many the depth-1 chain holds before the failing
		// checkpoint: with 2 (a base and a delta) it rolls over.
		segments int
		fail     func(m *Maintainer, store *recordingStore) (undo func())
	}{
		{"encode", 2, func(m *Maintainer, _ *recordingStore) func() {
			// AppendMod refuses a value of no known type: the queue
			// snapshot, and with it the base, fails to encode.
			good := m.deltas["PS"]
			m.deltas["PS"] = append(good[:len(good):len(good)], Mod{Kind: ModInsert, Alias: "PS", Row: storage.Row{{T: 9}}})
			return func() { m.deltas["PS"] = good }
		}},
		{"put-base", 2, func(_ *Maintainer, store *recordingStore) func() {
			store.refuseBase = true
			return func() { store.refuseBase = false }
		}},
		{"put-delta", 1, func(_ *Maintainer, store *recordingStore) func() {
			store.refuseDelta = true
			return func() { store.refuseDelta = false }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := liveDB(t)
			r := newChainRun(t, db, paperView, 1)
			store := &recordingStore{}
			r.chain.SetStore(store)
			for i := 0; i < tc.segments; i++ {
				applyN(t, r.m, 100+10*i, 3)
				if err := r.m.ProcessBatch("PS", 2); err != nil {
					t.Fatal(err)
				}
				if err := r.chain.Checkpoint(r.m); err != nil {
					t.Fatal(err)
				}
			}
			applyN(t, r.m, 200, 2)
			if err := r.m.ProcessBatch("PS", 2); err != nil {
				t.Fatal(err)
			}
			base, deltas, tip, calls := r.chain.base, r.chain.deltas, r.chain.TipLSN(), len(store.calls)
			dirty := fmt.Sprint(r.m.dirty)
			if len(r.m.dirty["partsupp"]) == 0 {
				t.Fatal("the drains marked no key dirty; the test would prove nothing")
			}

			undo := tc.fail(r.m, store)
			if err := r.chain.Checkpoint(r.m); err == nil {
				t.Fatal("the failing checkpoint succeeded")
			}
			undo()
			if !bytes.Equal(r.chain.base, base) || len(r.chain.deltas) != len(deltas) || r.chain.TipLSN() != tip {
				t.Fatalf("failed checkpoint changed the chain: depth %d tip %d, want depth %d tip %d",
					r.chain.Depth(), r.chain.TipLSN(), len(deltas), tip)
			}
			for i := range deltas {
				if !bytes.Equal(r.chain.deltas[i], deltas[i]) {
					t.Fatalf("failed checkpoint rewrote delta %d", i)
				}
			}
			if len(store.calls) != calls {
				t.Fatalf("failed checkpoint reached the store: %+v", store.calls[calls:])
			}
			if got := fmt.Sprint(r.m.dirty); got != dirty {
				t.Fatalf("failed checkpoint changed the dirty keys: %s, want %s", got, dirty)
			}
			rec, err := RecoverChain(db, paperView, r.chain, r.wal)
			if err != nil {
				t.Fatal(err)
			}
			if replicaKey(rec) != replicaKey(r.m) || queuesKey(rec) != queuesKey(r.m) || rowsKey(rec.Result()) != rowsKey(r.m.Result()) {
				t.Fatal("recovery from the untouched chain diverged from the live maintainer")
			}

			// The retry writes the segment the failed checkpoint did not.
			if err := r.chain.Checkpoint(r.m); err != nil {
				t.Fatal(err)
			}
			last := store.calls[len(store.calls)-1]
			if rollover := tc.segments == 2; last.base != rollover || r.chain.Depth() != len(store.deltas) {
				t.Fatalf("retry: depth %d, last store call %+v, want a rollover %v", r.chain.Depth(), last, rollover)
			}
			stored := RestoreChain(store.base, store.deltas, last.lsn, 1)
			if err := r.wal.TruncateThrough(last.lsn); err != nil {
				t.Fatal(err)
			}
			rec, err = RecoverChain(db, paperView, stored, r.wal)
			if err != nil {
				t.Fatal(err)
			}
			if replicaKey(rec) != replicaKey(r.m) || queuesKey(rec) != queuesKey(r.m) || rowsKey(rec.Result()) != rowsKey(r.m.Result()) {
				t.Fatal("recovery from the store's chain diverged from the live maintainer")
			}
		})
	}
}

// TestCheckpointsChargeNoWork: a checkpoint is bookkeeping, not
// maintenance — a full checkpoint, a delta and a chain rollover all
// leave the work-unit counters the cost model reads bit-identical.
func TestCheckpointsChargeNoWork(t *testing.T) {
	db := liveDB(t)
	r := newChainRun(t, db, paperView, 1)
	applyN(t, r.m, 100, 6)
	if err := r.m.ProcessBatch("PS", 4); err != nil {
		t.Fatal(err)
	}
	before := *r.m.Stats()
	if before == (storage.Stats{}) {
		t.Fatal("drain charged no work; the test would prove nothing")
	}
	for i := 0; i < 3; i++ { // base, delta, rollover
		if err := r.chain.Checkpoint(r.m); err != nil {
			t.Fatal(err)
		}
	}
	if r.chain.Depth() != 0 {
		t.Fatalf("depth %d after base, delta, rollover on a depth-1 chain", r.chain.Depth())
	}
	if got := *r.m.Stats(); got != before {
		t.Fatalf("chain checkpoints charged work: %+v", got.Sub(before))
	}
}
