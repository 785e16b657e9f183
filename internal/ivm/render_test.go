package ivm

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"abivm/internal/exec"
	"abivm/internal/plan"
	"abivm/internal/storage"
)

// heldEntries returns every entry v's map holds, each hash's whole chain,
// keyed by its encoded key. It fails if two entries share a key or an
// entry is held under a hash other than its key's or with a zero count.
func heldEntries(t testing.TB, v *ViewState) map[string]*groupState {
	t.Helper()
	out := map[string]*groupState{}
	for h, head := range v.groups {
		for g := head; g != nil; g = g.next {
			k := storage.EncodeKey(g.keyVals...)
			if out[k] != nil {
				t.Fatalf("key %q is held twice", k)
			}
			if kh := storage.KeyHash(g.keyVals, v.keyOrds); g.hash != h || kh != h {
				t.Fatalf("key %q is held under hash %x, its hash is %x", k, h, kh)
			}
			if g.count == 0 {
				t.Fatalf("key %q is held with nothing folded into it", k)
			}
			out[k] = g
		}
	}
	return out
}

// sortedReference renders v the way Result did before the state kept its
// entries in order: collect the entries' encoded keys, sort.Strings them,
// render in that order. It reads the map only, never the kept order.
func sortedReference(t testing.TB, v *ViewState) []storage.Row {
	groups := heldEntries(t, v)
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []storage.Row
	if !v.isAgg {
		for _, k := range keys {
			for i := int64(0); i < groups[k].count; i++ {
				out = append(out, groups[k].keyVals)
			}
		}
		return out
	}
	for _, k := range keys {
		g := groups[k]
		row := make(storage.Row, len(v.itemRefs))
		for i, ref := range v.itemRefs {
			if ref.aggIdx >= 0 {
				row[i] = g.aggs[ref.aggIdx].result(g.count)
			} else {
				row[i] = g.keyVals[ref.groupIdx]
			}
		}
		out = append(out, row)
	}
	if len(out) == 0 && v.keyCols == 0 {
		row := make(storage.Row, len(v.itemRefs))
		for i, ref := range v.itemRefs {
			empty := aggState{kind: v.aggKinds[ref.aggIdx]}
			row[i] = empty.result(0)
		}
		out = append(out, row)
	}
	return out
}

// renderBytes flattens rendered rows into one string, row boundaries kept.
func renderBytes(rows []storage.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(storage.EncodeKey(r...))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestRenderMatchesSortedReference is the render order's property: random
// signed folds, Result at random points, the state replaced in between by
// a fresh one folded from the rows it holds, bag and aggregate views,
// narrow key domains (entries vanish and return between two renders all
// the time) and wide ones (a few fresh entries merge into many kept ones)
// — and every render is byte-equal to sorting the map's keys from
// scratch. Folded rows are borrowed: the test
// overwrites the buffer after every fold, so a state that kept one
// without copying renders garbage. Each view runs twice: with the keys'
// own hashes, and with every key mapped to one hash, so all of a state's
// entries share one chain that every fold searches and every emptied
// entry is unlinked from.
func TestRenderMatchesSortedReference(t *testing.T) {
	views := append(foldViews[:len(foldViews):len(foldViews)],
		foldView{"wide-spj", `SELECT t.a, t.b FROM t`, func(r *rand.Rand) storage.Row {
			return storage.Row{storage.I(int64(r.Intn(150))), storage.S(string(rune('p' + r.Intn(2))))}
		}},
		foldView{"wide-groups", `SELECT t.g, MIN(t.x), COUNT(*) FROM t GROUP BY t.g`, func(r *rand.Rand) storage.Row {
			return storage.Row{storage.I(int64(r.Intn(120))), storage.I(int64(r.Intn(9))), storage.I(1)}
		}},
	)
	for _, fv := range views {
		for _, collide := range []bool{false, true} {
			name := fv.name
			if collide {
				name += "/one-hash"
			}
			t.Run(name, func(t *testing.T) { checkRenderOrder(t, fv, collide) })
		}
	}
}

// checkRenderOrder is TestRenderMatchesSortedReference for one view, its
// keys hashed apart or, with collide, all to one hash.
func checkRenderOrder(t *testing.T, fv foldView, collide bool) {
	p, err := PlanView(fv.query)
	if err != nil {
		t.Fatal(err)
	}
	if collide {
		storage.KeyHash = func(storage.Row, []int) uint64 { return 42 }
		t.Cleanup(func() { storage.KeyHash = storage.HashCols })
	}
	renders, returns := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		renderEvery := []int{1, 4, 16}[seed%3]
		v := NewViewState(p, nil)
		stateKey := func(r storage.Row) string {
			if p.Aggregate {
				return storage.EncodeKey(r[:p.GroupCols]...)
			}
			return storage.EncodeKey(r...)
		}
		var present []storage.Row  // one element per unit of folded weight
		held := map[string]int64{} // state key -> weight the state holds under it
		gone := map[string]bool{}  // state keys dropped since the last render
		var borrowed storage.Row
		fold := func(row storage.Row, w int64) {
			k := stateKey(row)
			if held[k] == 0 && gone[k] {
				returns++
			}
			if held[k] += w; held[k] == 0 {
				delete(held, k)
				gone[k] = true
			}
			borrowed = append(borrowed[:0], row...)
			v.AddWeighted(borrowed, w)
			for i := range borrowed {
				borrowed[i] = storage.S("overwritten")
			}
		}
		check := func(op int, what string) {
			renders++
			clear(gone)
			got := renderBytes(v.Result())
			if want := renderBytes(sortedReference(t, v)); got != want {
				t.Fatalf("seed %d op %d (%s): rendered\n%q\nsorting from scratch gives\n%q", seed, op, what, got, want)
			}
			if p.Aggregate {
				return
			}
			// A bag renders the folded rows themselves: hold it against
			// the test's own copies, which no fold could have kept.
			folded := make([]string, len(present))
			for i, r := range present {
				folded[i] = storage.EncodeKey(r...) + "\n"
			}
			sort.Strings(folded)
			if want := strings.Join(folded, ""); got != want {
				t.Fatalf("seed %d op %d (%s): rendered\n%q\nthe rows folded are\n%q", seed, op, what, got, want)
			}
		}
		for op := 0; op < 400; op++ {
			if len(present) > 0 && rng.Intn(5) < 2 {
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
				fold(row, w)
			} else {
				row := fv.row(rng)
				w := int64(1 + rng.Intn(2))
				for i := int64(0); i < w; i++ {
					present = append(present, row)
				}
				fold(row, w)
			}
			if rng.Intn(renderEvery) == 0 {
				check(op, "fold")
			}
			if rng.Intn(11) > 0 {
				continue
			}
			if rng.Intn(2) == 0 {
				// A fresh state folded from the same rows renders alike.
				v = NewViewState(p, nil)
				for _, r := range present {
					v.AddWeighted(r, 1)
				}
				check(op, "refold")
			}
		}
		check(400, "end")
	}
	if returns == 0 {
		t.Fatalf("%d renders, but no key ever vanished and returned between two of them", renders)
	}
}

// TestKeyOrderSweepsUnrendered: a state nobody renders keeps its order
// lists in proportion to what it holds, not to what it ever held — whether
// its entries are an SPJ view's rows or an aggregate view's groups.
func TestKeyOrderSweepsUnrendered(t *testing.T) {
	for _, query := range []string{`SELECT t.a FROM t`, `SELECT t.a, COUNT(*) FROM t GROUP BY t.a`} {
		p, err := PlanView(query)
		if err != nil {
			t.Fatal(err)
		}
		v := NewViewState(p, nil)
		row := func(i int64) storage.Row { return storage.Row{storage.I(i), storage.I(1)}[:len(p.Delta.Items)] }
		for i := int64(0); i < 10000; i++ {
			v.AddWeighted(row(i), 1)
			if i >= 10 {
				v.AddWeighted(row(i-10), -1)
			}
		}
		if n, held := len(v.order.sorted)+len(v.order.fresh), len(heldEntries(t, v)); n > 2*held+64 {
			t.Fatalf("%s: order lists hold %d entries for a state of %d", query, n, held)
		}
		if got, want := renderBytes(v.Result()), renderBytes(sortedReference(t, v)); got != want {
			t.Fatalf("%s: rendered %q, want %q", query, got, want)
		}
	}
}

// TestSharedMinMaxMultiset: MIN(x), MAX(x), MIN(y), SUM(x) keeps exactly
// two multisets per group — one per distinct argument, the MAX reading
// the MIN's — through random folds, retraction down to an empty group,
// and a fresh state folded from the rows the table holds; and the view
// equals the query evaluated from scratch by internal/exec throughout.
func TestSharedMinMaxMultiset(t *testing.T) {
	const query = `SELECT t.g, MIN(t.x), MAX(t.x), MIN(t.y), SUM(t.x) FROM t GROUP BY t.g`
	p, err := PlanView(query)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 0, 2, -1}; !slices.Equal(p.aggSet, want) {
		t.Fatalf("aggSet = %v, want %v", p.aggSet, want)
	}
	db := storage.NewDB()
	schema, err := storage.NewSchema("t", []storage.Column{
		{Name: "k", Type: storage.TInt}, {Name: "g", Type: storage.TInt},
		{Name: "x", Type: storage.TInt}, {Name: "y", Type: storage.TFloat},
	}, "k")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	var stats storage.Stats
	v := NewViewState(p, &stats)
	delta := func(r storage.Row) storage.Row { return storage.Row{r[1], r[2], r[2], r[3], r[2]} }
	check := func(ctx string) {
		t.Helper()
		for k, g := range heldEntries(t, v) {
			sets := map[*multiset]bool{}
			owners := 0
			for _, a := range g.aggs {
				if a.multiset != nil {
					sets[a.multiset] = true
				}
				if a.owns {
					owners++
				}
			}
			if len(sets) != 2 || owners != 2 || g.aggs[0].multiset != g.aggs[1].multiset || g.aggs[3].multiset != nil {
				t.Fatalf("%s: group %q keeps %d multisets under %d owners, want 2 and 2, MIN(x) and MAX(x) sharing", ctx, k, len(sets), owners)
			}
		}
		var scratch storage.Stats
		op, err := plan.Compile(p.View, nil, &plan.Options{Resolve: db.Table, Stats: &scratch})
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.Result(); renderBytes(got) != renderBytes(want) {
			t.Fatalf("%s: view holds\n%v\nthe query evaluates to\n%v", ctx, got, want)
		}
	}
	rng := rand.New(rand.NewSource(7))
	var live []storage.Row
	nextKey := int64(0)
	insert := func() {
		r := storage.Row{storage.I(nextKey), storage.I(int64(rng.Intn(3))), storage.I(int64(rng.Intn(6))), storage.F(float64(rng.Intn(4)) + 0.5)}
		nextKey++
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
		live = append(live, r)
		v.AddWeighted(delta(r), 1)
	}
	remove := func(i int) {
		r := live[i]
		live = append(live[:i], live[i+1:]...)
		if _, err := tbl.Delete(r[0]); err != nil {
			t.Fatal(err)
		}
		v.AddWeighted(delta(r), -1)
	}
	for op := 0; op < 600; op++ {
		if len(live) > 0 && rng.Intn(5) < 2 {
			remove(rng.Intn(len(live)))
		} else {
			insert()
		}
		if op%25 == 0 {
			check("fold")
		}
	}
	// Four aggregate updates are charged per unit fold, shared multiset or
	// not: sharing moves no charged work unit.
	if folds := stats.RowsMaterial; stats.AggUpdates != 4*folds {
		t.Fatalf("%d aggregate updates charged for %d folds, want 4 each", stats.AggUpdates, folds)
	}
	v = NewViewState(p, &stats)
	for _, r := range live {
		v.AddWeighted(delta(r), 1)
	}
	check("refold")
	// Retract group 0 down to nothing, checking on the way, then refill it.
	for i := len(live) - 1; i >= 0; i-- {
		if live[i][1].Int() == 0 {
			remove(i)
			check("emptying group 0")
		}
	}
	if _, ok := heldEntries(t, v)[storage.EncodeKey(storage.I(0))]; ok {
		t.Fatal("group 0 still held after its last row was retracted")
	}
	for i := 0; i < 40; i++ {
		insert()
	}
	check("refilled")
}
