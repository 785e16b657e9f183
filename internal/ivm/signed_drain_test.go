package ivm

import (
	"fmt"
	"math/rand"
	"testing"

	"abivm/internal/exec"
	"abivm/internal/plan"
	"abivm/internal/storage"
)

// The property: a drain that carries its batch as one signed relation
// through one delta-join pass is indistinguishable from the two-pass
// drain — the delta query run over the retracted rows, then again over
// the inserted rows — in the rows it emits, the order it emits them in
// (every retraction, then every insertion, left-major inside each), the
// view content it leaves, and what a recompute from scratch says. The
// two-pass reference lives in this file and shares no code with the
// drain beyond the planner and the fold.

// The four view templates of the steady-state benchmark, over its schema
// plus one station column no view reads (so a station update can leave a
// filtered view's minus and plus row both standing).
var signedDrainViews = []struct{ name, query string }{
	{"t1 filtered aggregate", `SELECT SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region = 'r0'`},
	{"t2 group by", `SELECT st.region, MIN(s.amount), MAX(s.amount), AVG(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region`},
	{"t3 filtered join", `SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region = 'r0'`},
	{"t4 single table", `SELECT s.salekey, s.amount FROM sales AS s WHERE s.amount >= 30`},
}

const (
	sdStations = 8
	sdRegions  = 4
	sdSales    = 60
)

// signedDrainDB builds the two tables; indexed adds the join indexes on
// both sides, without them every delta join is a hash join.
func signedDrainDB(t *testing.T, rng *rand.Rand, indexed bool) *storage.DB {
	t.Helper()
	db := storage.NewDB()
	mk := func(name string, cols []storage.Column, key string) *storage.Table {
		schema, err := storage.NewSchema(name, cols, key)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable(schema)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	stations := mk("stations", []storage.Column{{Name: "stationkey", Type: storage.TInt}, {Name: "region", Type: storage.TString}, {Name: "cap", Type: storage.TInt}}, "stationkey")
	for i := 0; i < sdStations; i++ {
		row := sdStation(rng, int64(i))
		row[1] = storage.S(fmt.Sprint("r", i%sdRegions)) // every region starts populated
		if err := stations.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	sales := mk("sales", []storage.Column{{Name: "salekey", Type: storage.TInt}, {Name: "station", Type: storage.TInt}, {Name: "amount", Type: storage.TFloat}}, "salekey")
	for i := 0; i < sdSales; i++ {
		if err := sales.Insert(sdSale(rng, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if indexed {
		if err := stations.CreateIndex("st_pk", storage.HashIndex, "stationkey"); err != nil {
			t.Fatal(err)
		}
		if err := sales.CreateIndex("sa_station", storage.HashIndex, "station"); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func sdStation(rng *rand.Rand, key int64) storage.Row {
	return storage.Row{storage.I(key), storage.S(fmt.Sprint("r", rng.Intn(sdRegions))), storage.I(int64(rng.Intn(3)))}
}

// sdSale draws a sale; a few reference a station that never exists, and
// amounts are arbitrary fractions: sums are exact in any order.
func sdSale(rng *rand.Rand, key int64) storage.Row {
	return storage.Row{storage.I(key), storage.I(int64(rng.Intn(sdStations + 2))), storage.F(rng.Float64() * 60)}
}

// sdBatch draws at least n modifications of one table against its live
// state and returns them in order. The mix: inserts, deletes, updates
// that move the join key or the filtered column, updates that touch
// neither, and pairs that cancel (insert then delete, update then update
// back, delete then re-insert the same row, an update to the same row);
// with cancelling set only the pairs, so the whole batch nets to nothing.
func sdBatch(rng *rand.Rand, live *storage.Table, alias string, next *int64, n int, cancelling bool) []Mod {
	draw := sdSale
	if alias == "st" {
		draw = sdStation
	}
	// state mirrors the live table as the batch will leave it, so every
	// modification is valid when Apply replays them in order.
	state := map[int64]storage.Row{}
	var keys []int64
	live.Scan(func(r storage.Row) bool {
		state[r[0].Int()] = r
		keys = append(keys, r[0].Int())
		return true
	})
	pick := func() (int64, bool) {
		for tries := 0; tries < 8 && len(keys) > 0; tries++ {
			if k := keys[rng.Intn(len(keys))]; state[k] != nil {
				return k, true
			}
		}
		return 0, false
	}
	var mods []Mod
	insert := func(row storage.Row) {
		state[row[0].Int()] = row
		keys = append(keys, row[0].Int())
		mods = append(mods, Insert(alias, row))
	}
	remove := func(k int64) {
		state[k] = nil
		mods = append(mods, Delete(alias, storage.I(k)))
	}
	update := func(k int64, row storage.Row) {
		state[k] = row
		mods = append(mods, Update(alias, []storage.Value{storage.I(k)}, row))
	}
	for len(mods) < n {
		op := rng.Intn(8)
		if cancelling {
			op = 4 + rng.Intn(4)
		}
		k, ok := pick()
		if !ok { // no row to modify: insert, or insert and delete
			op -= op % 4
		}
		switch op {
		case 0:
			insert(draw(rng, *next))
			*next++
		case 1:
			remove(k)
		case 2: // anything may change but the key
			update(k, draw(rng, k))
		case 3: // only the last column changes: join key and region stay
			row := state[k].Clone()
			row[2] = draw(rng, k)[2]
			update(k, row)
		case 4: // insert then delete
			row := draw(rng, *next)
			*next++
			insert(row)
			remove(row[0].Int())
		case 5: // update then update back
			old := state[k]
			update(k, draw(rng, k))
			update(k, old)
		case 6: // delete then re-insert the same row
			old := state[k]
			remove(k)
			insert(old)
		case 7: // an update that changes nothing
			update(k, state[k])
		}
	}
	return mods
}

// refNetDelta is the reference's net effect of a batch on one table: the
// rows that leave and the rows that arrive, each in first-touch order.
func refNetDelta(repl *storage.Table, batch []Mod) (del, ins []storage.Row) {
	type span struct{ before, after storage.Row }
	seen := map[string]*span{}
	var order []*span
	at := func(key []storage.Value) *span {
		k := storage.EncodeKey(key...)
		if seen[k] == nil {
			row, _ := repl.Get(key...)
			seen[k] = &span{row, row}
			order = append(order, seen[k])
		}
		return seen[k]
	}
	for _, mod := range batch {
		switch mod.Kind {
		case ModInsert:
			at(mod.Row.Project(repl.Schema().Key)).after = mod.Row
		case ModDelete:
			at(mod.Key).after = nil
		case ModUpdate:
			at(mod.Key).after = mod.Row
		}
	}
	for _, sp := range order {
		if sp.before != nil && sp.after != nil && sp.before.SameKey(sp.after) {
			continue
		}
		if sp.before != nil {
			del = append(del, sp.before)
		}
		if sp.after != nil {
			ins = append(ins, sp.after)
		}
	}
	return del, ins
}

// refDeltaJoin is one pass of the two-pass reference: the delta query
// compiled afresh with the alias bound to rows, run over the replicas.
func refDeltaJoin(t *testing.T, m *Maintainer, alias string, rows []storage.Row) []storage.Row {
	t.Helper()
	if len(rows) == 0 {
		return nil
	}
	schema := m.replica.MustTable(m.tables[alias]).Schema()
	cols := make([]exec.Col, len(schema.Columns))
	for i, c := range schema.Columns {
		cols[i] = exec.Col{Table: alias, Name: c.Name, Type: c.Type}
	}
	var scratch storage.Stats
	op, err := plan.Compile(m.deltaSel, nil, &plan.Options{
		Sources: map[string]exec.Op{alias: exec.NewRowsSource(cols, rows, &scratch)},
		Resolve: m.replica.Table,
		Stats:   &scratch,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameSequence reports whether two row lists are equal position by
// position.
func sameSequence(a, b []storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].SameKey(b[i]) {
			return false
		}
	}
	return true
}

// TestSignedDrainMatchesTwoPassReference runs generated batches through
// the four view templates, with and without the join indexes, checking
// every drain against the two-pass reference. Mutation-checked: folding
// with a swapped sign, splitting the output one row late, and a hash
// join reporting its neighbour's ordinal each fail it.
func TestSignedDrainMatchesTwoPassReference(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		for vi, view := range signedDrainViews {
			t.Run(fmt.Sprintf("%s/indexed=%v", view.name, indexed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(20261002 + vi)))
				db := signedDrainDB(t, rng, indexed)
				m, err := New(db, view.query)
				if err != nil {
					t.Fatal(err)
				}
				// The reference's view content starts from the same rows.
				ref := NewViewState(m.plan, nil)
				ref.Add(refInitial(t, m))
				next := int64(1000) // fresh keys, for either table

				var mixed, empty, boundaries int
				drain := func(alias string, k int) {
					t.Helper()
					repl := m.replica.MustTable(m.tables[alias])
					batch := m.deltas[alias][:k]
					del, ins := refNetDelta(repl, batch)
					wantMinus, wantPlus := refDeltaJoin(t, m, alias, del), refDeltaJoin(t, m, alias, ins)

					delta, minus, err := m.netDelta(repl, batch)
					if err != nil {
						t.Fatal(err)
					}
					if minus != len(del) || !sameSequence(delta[:minus], del) || !sameSequence(delta[minus:], ins) {
						t.Fatalf("net delta of %v:\n got %v split at %d\nwant %v then %v", batch, delta, minus, del, ins)
					}
					out, split, err := m.deltaJoin(alias, repl, delta, minus)
					if err != nil {
						t.Fatal(err)
					}
					if split != len(wantMinus) || !sameSequence(out[:split], wantMinus) || !sameSequence(out[split:], wantPlus) {
						t.Fatalf("delta join of %v (minus %d):\n got %v split at %d\nwant %v then %v", delta, minus, out, split, wantMinus, wantPlus)
					}
					for _, r := range wantMinus {
						ref.AddWeighted(r, -1)
					}
					for _, r := range wantPlus {
						ref.AddWeighted(r, 1)
					}
					if err := m.ProcessBatch(alias, k); err != nil {
						t.Fatal(err)
					}
					if got, want := m.Result(), ref.Result(); !sameSequence(got, want) {
						t.Fatalf("view after draining %v:\n got %v\nwant %v", batch, got, want)
					}
					switch {
					case len(delta) == 0:
						empty++
					case len(wantMinus) > 0 && len(wantPlus) > 0:
						mixed++
					}
					if len(del) > 0 && len(ins) > 0 {
						boundaries++
					}
				}

				for round := 0; round < 120; round++ {
					alias := m.aliases[rng.Intn(len(m.aliases))]
					live := db.MustTable(m.tables[alias])
					// One batch in five nets to nothing.
					if err := apply(m, sdBatch(rng, live, alias, &next, 1+rng.Intn(6), rng.Intn(5) == 0)...); err != nil {
						t.Fatal(err)
					}
					// Drain a prefix of some queue; every few rounds drain
					// everything and ask the recompute.
					pending := len(m.deltas[alias])
					k := pending
					if rng.Intn(3) == 0 {
						k = 1 + rng.Intn(pending)
					}
					drain(alias, k)
					if round%10 == 9 {
						for _, a := range m.aliases {
							if p := len(m.deltas[a]); p > 0 {
								drain(a, p)
							}
						}
						fresh := evalOver(t, m, m.live)
						if got := m.Result(); rowsKey(got) != rowsKey(fresh) {
							t.Fatalf("round %d: view diverged from recompute:\nincremental: %v\nfresh:       %v", round, got, fresh)
						}
					}
				}
				if mixed == 0 || empty == 0 || boundaries == 0 {
					t.Fatalf("generator coverage: %d drains with both signs in the output, %d that net to nothing, %d with both signs in the batch; want all non-zero", mixed, empty, boundaries)
				}
			})
		}
	}
}

// refInitial evaluates the delta query over the replicas as they stand.
func refInitial(t *testing.T, m *Maintainer) []storage.Row {
	t.Helper()
	var scratch storage.Stats
	op, err := plan.Compile(m.deltaSel, nil, &plan.Options{Resolve: m.replica.Table, Stats: &scratch})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}
