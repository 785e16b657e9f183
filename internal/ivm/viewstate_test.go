package ivm

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"abivm/internal/storage"
	"abivm/internal/testenv"
)

// foldView is one view of the fold property tests: its definition and
// the generator of its delta rows (group columns, then one argument per
// aggregate). The domains are small, so rows and whole groups vanish and
// come back between two renders all the time.
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
		x := storage.F(float64(r.Intn(5)) + r.Float64())
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

// TestSPJFoldsAsGroupByEveryColumn: an SPJ view is GROUP BY on all of its
// columns with COUNT(*) rendered by expansion. The same signed stream is
// folded into the SPJ plan and into the plan rewritten that way, and after
// every fold — and after both states are replaced by fresh ones folded
// from the rows they hold — the SPJ view's Result is the grouped view's
// with each row repeated COUNT(*) times. Both are charged the same
// unit folds; only the one with an aggregate is charged aggregate updates.
func TestSPJFoldsAsGroupByEveryColumn(t *testing.T) {
	spj, err := PlanView(`SELECT t.a, t.b FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := PlanView(`SELECT t.a, t.b, COUNT(*) FROM t GROUP BY t.a, t.b`)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var vStats, gStats storage.Stats
		v, g := NewViewState(spj, &vStats), NewViewState(grouped, &gStats)
		check := func(op int, what string) {
			var want []storage.Row
			for _, r := range g.Result() {
				for n := r[2].Int(); n > 0; n-- {
					want = append(want, r[:2])
				}
			}
			if got := v.Result(); renderBytes(got) != renderBytes(want) {
				t.Fatalf("seed %d op %d (%s): SPJ view renders\n%v\nthe grouped view expands to\n%v", seed, op, what, got, want)
			}
		}
		var present []storage.Row // one element per unit of folded weight
		for op := 0; op < 300; op++ {
			row, w := foldViews[0].row(rng), int64(1+rng.Intn(2))
			if len(present) > 0 && rng.Intn(5) < 2 {
				// Retract a present row, sometimes every copy of it at once.
				row, w = present[rng.Intn(len(present))], 0
				all := rng.Intn(2) == 0
				present = slices.DeleteFunc(present, func(r storage.Row) bool {
					if r.SameKey(row) && (all || w == 0) {
						w--
						return true
					}
					return false
				})
			}
			for i := int64(0); i < w; i++ {
				present = append(present, row)
			}
			v.AddWeighted(row, w)
			g.AddWeighted(append(row.Clone(), storage.I(1)), w)
			check(op, "fold")
			if rng.Intn(7) > 0 {
				continue
			}
			v, g = NewViewState(spj, &vStats), NewViewState(grouped, &gStats)
			for _, r := range present {
				v.AddWeighted(r, 1)
				g.AddWeighted(append(r.Clone(), storage.I(1)), 1)
			}
			check(op, "refold")
		}
		if vStats.RowsMaterial != gStats.RowsMaterial || vStats.AggUpdates != 0 || gStats.AggUpdates != gStats.RowsMaterial {
			t.Fatalf("seed %d: SPJ view charged %d folds and %d aggregate updates, grouped view %d and %d",
				seed, vStats.RowsMaterial, vStats.AggUpdates, gStats.RowsMaterial, gStats.AggUpdates)
		}
	}
}

// TestViewStateFoldAllocs: looking an entry up builds nothing. A fold
// into an entry the state holds allocates nothing, in an SPJ, a SUM and a
// MIN/MAX view; a new two-column SPJ entry allocates once, the entry and
// the copy of its borrowed key values together; a retraction that drops
// an entry allocates nothing.
func TestViewStateFoldAllocs(t *testing.T) {
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
		if n := testing.AllocsPerRun(20, func() {
			for _, r := range rows {
				v.AddWeighted(r, 1)
				v.AddWeighted(r, -1)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations folding into existing entries, want 0", fv.name, n)
		}
	}

	p, err := PlanView(foldViews[0].query)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	rows := make([]storage.Row, n+1)
	for i := range rows {
		rows[i] = storage.Row{storage.I(int64(i)), storage.S("EAST")}
	}
	v := NewViewState(p, &storage.Stats{})
	// Size the map and the order lists for every entry first.
	for _, r := range rows {
		v.AddWeighted(r, 1)
	}
	for _, r := range rows {
		v.AddWeighted(r, -1)
	}
	created := 0
	if got := testing.AllocsPerRun(n, func() {
		v.AddWeighted(rows[created], 1)
		created++
	}); got > 1 {
		t.Errorf("%v allocations per new SPJ entry, want at most 1", got)
	}
	dropped := 0
	if got := testing.AllocsPerRun(n, func() {
		v.AddWeighted(rows[dropped], -1)
		dropped++
	}); got != 0 {
		t.Errorf("%v allocations per dropped entry, want 0", got)
	}
	if held := len(heldEntries(t, v)); held != 0 {
		t.Fatalf("%d entries held after every one was retracted", held)
	}
}

// TestViewStateResultAllocs: a render of a state whose entries are all
// listed allocates its row slice, and an aggregate view's one value array
// besides, however many rows it renders.
func TestViewStateResultAllocs(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	for i, want := range []float64{1, 2, 2} {
		fv := foldViews[i]
		p, err := PlanView(fv.query)
		if err != nil {
			t.Fatal(err)
		}
		v := NewViewState(p, nil)
		rng := rand.New(rand.NewSource(9))
		for j := 0; j < 64; j++ {
			v.AddWeighted(fv.row(rng), 1)
		}
		rows := len(v.Result())
		if got := testing.AllocsPerRun(20, func() { v.Result() }); got != want || rows < 3 {
			t.Errorf("%s: a render of %d rows allocates %v times, want %v", fv.name, rows, got, want)
		}
	}
}

// TestViewStateSumsExactly folds random float streams into one group's
// SUM, AVG and COUNT through AddWeighted with random weights: terms with
// signed zeros, subnormals, magnitudes near 1e±300 and MaxFloat64, the
// infinities and NaN, exact negations, and retractions of part of a
// term's weight. Each stream is folded in several random orders, cut into
// random chunks; after every chunk the rendered SUM must carry the bits
// of the math/big reference for what has been folded, AVG must be that
// divided by COUNT, and a group whose count fell to zero must be gone.
func TestViewStateSumsExactly(t *testing.T) {
	p, err := PlanView(`SELECT t.g, SUM(t.x), AVG(t.x), COUNT(*) FROM t GROUP BY t.g`)
	if err != nil {
		t.Fatal(err)
	}
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -0x1p-1060, 1e300, -1.5e300, 1e-300,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	type op struct {
		x float64
		w int64
	}
	rng := rand.New(rand.NewSource(5))
	for stream := 0; stream < 200; stream++ {
		// Insertions with weights 1-3; a retraction takes back part of
		// the weight an earlier insertion still holds.
		var ops []op
		var held []int64
		for n := 1 + rng.Intn(30); len(ops) < n; {
			switch r := rng.Intn(10); {
			case r < 2 && len(ops) > 0:
				if i := rng.Intn(len(ops)); held[i] > 0 {
					w := 1 + rng.Int63n(held[i])
					held[i] -= w
					ops, held = append(ops, op{ops[i].x, -w}), append(held, 0)
				}
			case r == 2 && len(ops) > 0:
				ops, held = append(ops, op{-ops[rng.Intn(len(ops))].x, 1}), append(held, 1)
			case r < 5:
				ops, held = append(ops, op{specials[rng.Intn(len(specials))], 1}), append(held, 1)
			default:
				w := 1 + rng.Int63n(3)
				x := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(30)-15))
				ops, held = append(ops, op{x, w}), append(held, w)
			}
		}
		for perm := 0; perm < 5; perm++ {
			// A random order that still retracts only what is held: a
			// retraction drawn before its insertion waits for it.
			var order []op
			waiting := map[uint64][]op{}
			inserted := map[uint64]int64{}
			for _, i := range rng.Perm(len(ops)) {
				o := ops[i]
				key := math.Float64bits(o.x) // by bits, so a NaN finds its insertion
				if o.w < 0 && inserted[key]+o.w < 0 {
					waiting[key] = append(waiting[key], o)
					continue
				}
				order = append(order, o)
				inserted[key] += o.w
				for len(waiting[key]) > 0 && inserted[key]+waiting[key][0].w >= 0 {
					inserted[key] += waiting[key][0].w
					order = append(order, waiting[key][0])
					waiting[key] = waiting[key][1:]
				}
			}
			v := NewViewState(p, nil)
			var terms []float64
			var weights []int64
			var count int64
			for done := 0; done < len(order); {
				next := min(len(order), done+1+rng.Intn(6))
				for _, o := range order[done:next] {
					v.AddWeighted(storage.Row{storage.I(0), storage.F(o.x), storage.F(o.x), storage.I(1)}, o.w)
					terms, weights, count = append(terms, o.x), append(weights, o.w), count+o.w
				}
				done = next
				rows := v.Result()
				if count == 0 {
					if len(rows) != 0 {
						t.Fatalf("stream %d perm %d: %d rows with nothing held", stream, perm, len(rows))
					}
					continue
				}
				sum := testenv.RoundedSum(terms, weights)
				want := storage.Row{storage.I(0), storage.F(sum), storage.F(sum / float64(count)), storage.I(count)}
				if len(rows) != 1 || !sameBits(rows[0], want) {
					t.Fatalf("stream %d perm %d after %v: renders %v, want %v", stream, perm, order[:done], rows, want)
				}
			}
		}
	}
}

// sameBits compares two rendered rows value by value, floats by their
// bits, so a NaN equals a NaN.
func sameBits(a, b storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || a[i].T == storage.TFloat && math.Float64bits(a[i].Float()) != math.Float64bits(b[i].Float()) ||
			a[i].T != storage.TFloat && storage.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}
