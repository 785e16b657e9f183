package ivm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"abivm/internal/storage"
	"abivm/internal/testenv"
)

// The patched-checkpoint property: however folds and checkpoints
// interleave, the copy Checkpoint patches is the copy a full rebuild
// would produce, and a state restored from it is the live state.

// foldView is one view of the property test: its definition and the
// generator of its delta rows (group columns, then one argument per
// aggregate). The domains are small, so rows and whole groups vanish and
// come back inside a checkpoint interval all the time.
type foldView struct {
	name  string
	query string
	row   func(*rand.Rand) storage.Row
}

var foldViews = []foldView{
	{"spj", `SELECT t.a, t.b FROM t`, func(r *rand.Rand) storage.Row {
		return storage.Row{storage.I(int64(r.Intn(4))), storage.S(string(rune('p' + r.Intn(3))))}
	}},
	{"sum-count-avg", `SELECT t.g, SUM(t.x), COUNT(*), AVG(t.x) FROM t GROUP BY t.g`, func(r *rand.Rand) storage.Row {
		x := storage.F(float64(r.Intn(5)) + 0.25)
		return storage.Row{storage.I(int64(r.Intn(3))), x, storage.I(1), x}
	}},
	{"min-max", `SELECT t.g, MIN(t.x), MAX(t.x) FROM t GROUP BY t.g`, func(r *rand.Rand) storage.Row {
		x := storage.I(int64(r.Intn(6)))
		return storage.Row{storage.S(string(rune('a' + r.Intn(3)))), x, x}
	}},
	{"grand", `SELECT SUM(t.x), MAX(t.x) FROM t`, func(r *rand.Rand) storage.Row {
		x := storage.I(int64(r.Intn(4)))
		return storage.Row{x, x}
	}},
}

// fullCopy builds the checkpoint copy of v from nothing, by walking all
// of it.
func fullCopy(v *ViewState) *ViewStateSnapshot {
	snap := &ViewStateSnapshot{Groups: map[string]*GroupSnapshot{}, Bag: map[string]*BagSnapshot{}}
	for k, e := range v.bag {
		snap.Bag[k] = &BagSnapshot{Row: e.row, Count: e.count}
	}
	for k, g := range v.groups {
		gs := &GroupSnapshot{}
		g.copyTo(gs)
		snap.Groups[k] = gs
	}
	return snap
}

// diffSnapshots compares two copies entry for entry and describes the
// first difference, or returns "".
func diffSnapshots(got, want *ViewStateSnapshot) string {
	if len(got.Bag) != len(want.Bag) || len(got.Groups) != len(want.Groups) {
		return fmt.Sprintf("%d bag entries and %d groups, want %d and %d", len(got.Bag), len(got.Groups), len(want.Bag), len(want.Groups))
	}
	for k, w := range want.Bag {
		g := got.Bag[k]
		if g == nil || g.Count != w.Count || !g.Row.SameKey(w.Row) {
			return fmt.Sprintf("bag entry %q: %+v, want %+v", k, g, w)
		}
	}
	for k, w := range want.Groups {
		g := got.Groups[k]
		if g == nil || g.Count != w.Count || !g.Key.SameKey(w.Key) || len(g.Aggs) != len(w.Aggs) {
			return fmt.Sprintf("group %q: %+v, want %+v", k, g, w)
		}
		for i := range w.Aggs {
			ga, wa := g.Aggs[i], w.Aggs[i]
			//lint:ignore floateq the copy must carry the accumulator's very bits
			if ga.Sum != wa.Sum || len(ga.Multiset) != len(wa.Multiset) {
				return fmt.Sprintf("group %q aggregate %d: %+v, want %+v", k, i, ga, wa)
			}
			for j := range wa.Multiset {
				if ga.Multiset[j].N != wa.Multiset[j].N || storage.Compare(ga.Multiset[j].V, wa.Multiset[j].V) != 0 {
					return fmt.Sprintf("group %q aggregate %d multiset: %+v, want %+v", k, i, ga.Multiset, wa.Multiset)
				}
			}
		}
	}
	return ""
}

func TestPatchedSnapshotEqualsFullCopy(t *testing.T) {
	for _, fv := range foldViews {
		fv := fv
		t.Run(fv.name, func(t *testing.T) {
			p, err := PlanView(fv.query)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				v := NewViewState(p, nil)
				var present []storage.Row // the folded delta rows, one element per unit of weight
				checkpoints := 0
				for op := 0; op < 300; op++ {
					switch {
					case len(present) > 0 && rng.Intn(5) < 2:
						// Retract a present row, sometimes every copy of it at once.
						row := present[rng.Intn(len(present))]
						all := rng.Intn(2) == 0
						w := int64(0)
						kept := present[:0]
						for _, r := range present {
							if r.SameKey(row) && (all || w == 0) {
								w--
								continue
							}
							kept = append(kept, r)
						}
						present = kept
						v.AddWeighted(row, w)
					default:
						row := fv.row(rng)
						w := int64(1 + rng.Intn(2))
						for i := int64(0); i < w; i++ {
							present = append(present, row)
						}
						v.AddWeighted(row, w)
					}
					if rng.Intn(7) > 0 {
						continue
					}
					checkpoints++
					want := v.Result()
					snap := v.Checkpoint()
					if d := diffSnapshots(snap, fullCopy(v)); d != "" {
						t.Fatalf("seed %d op %d: patched copy differs from a full copy: %s", seed, op, d)
					}
					restored := NewViewState(p, nil)
					if err := restored.Restore(snap); err != nil {
						t.Fatalf("seed %d op %d: %v", seed, op, err)
					}
					if got := restored.Result(); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d op %d: restored state renders\n%v\nlive state rendered\n%v", seed, op, got, want)
					}
					// A crash here recovers into the restored state, which
					// must go on patching the copy it was rebuilt from.
					if rng.Intn(3) == 0 {
						v = restored
					}
				}
				if checkpoints == 0 {
					t.Fatalf("seed %d: stream took no checkpoint", seed)
				}
			}
		})
	}
}

// TestRestoreRejectsForeignSnapshot: a copy of another view's shape is an
// error and leaves the state untouched.
func TestRestoreRejectsForeignSnapshot(t *testing.T) {
	spj, err := PlanView(foldViews[0].query)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := PlanView(foldViews[1].query)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	bag, groups := NewViewState(spj, nil), NewViewState(agg, nil)
	for i := 0; i < 20; i++ {
		bag.AddWeighted(foldViews[0].row(rng), 1)
		groups.AddWeighted(foldViews[1].row(rng), 1)
	}
	want := groups.Result()
	if err := groups.Restore(bag.Checkpoint()); err == nil {
		t.Fatal("an aggregate view restored an SPJ view's copy")
	}
	if err := bag.Restore(groups.Checkpoint()); err == nil {
		t.Fatal("an SPJ view restored an aggregate view's copy")
	}
	if got := groups.Result(); !reflect.DeepEqual(got, want) {
		t.Fatalf("failed restore changed the state: %v, want %v", got, want)
	}
}

// TestFoldIntoExistingEntryAllocs: a fold that lands in an entry the
// state already holds allocates nothing, checkpointed or not.
func TestFoldIntoExistingEntryAllocs(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	for _, fv := range foldViews[:3] {
		p, err := PlanView(fv.query)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		rows := make([]storage.Row, 64)
		v := NewViewState(p, &storage.Stats{})
		for i := range rows {
			rows[i] = fv.row(rng)
			v.AddWeighted(rows[i], 2)
		}
		v.Checkpoint()
		if n := testing.AllocsPerRun(20, func() {
			for _, r := range rows {
				v.AddWeighted(r, 1)
				v.AddWeighted(r, -1)
			}
			v.Checkpoint()
		}); n != 0 {
			t.Errorf("%s: %v allocations folding into existing entries and checkpointing them, want 0", fv.name, n)
		}
	}
}
