package dataflow

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// fanoutStream drives n seeded modifications through a graph over
// regionalDB(240, 20, 12 regions): sales inserts, deletes and in-place
// updates that may move a sale, and station region moves.
func fanoutStream(t *testing.T, g *Graph, n int) {
	t.Helper()
	next := fanoutMods()
	for i := 0; i < n; i++ {
		table, mod := next()
		liveIngest(t, g, table, mod)
	}
}

// fanoutMods returns fanoutStream's generator: each call the next
// modification of the one seeded stream, with its table.
func fanoutMods() func() (string, ivm.Mod) {
	rng := rand.New(rand.NewSource(43))
	live := make([]int64, 240)
	for i := range live {
		live[i] = int64(i)
	}
	next := int64(240)
	sale := func(k int64) storage.Row {
		return storage.Row{storage.I(k), storage.I(int64(rng.Intn(12))), storage.F(float64(1 + rng.Intn(50)))}
	}
	return func() (string, ivm.Mod) {
		switch r := rng.Intn(10); {
		case r < 5 || len(live) == 0:
			live = append(live, next)
			next++
			return "sales", ivm.Mod{Kind: ivm.ModInsert, Row: sale(next - 1)}
		case r < 7:
			at := rng.Intn(len(live))
			k := live[at]
			live = append(live[:at], live[at+1:]...)
			return "sales", ivm.Mod{Kind: ivm.ModDelete, Key: []storage.Value{storage.I(k)}}
		case r < 8:
			k := live[rng.Intn(len(live))]
			return "sales", ivm.Mod{Kind: ivm.ModUpdate, Key: []storage.Value{storage.I(k)}, Row: sale(k)}
		default:
			k := int64(rng.Intn(12))
			return "stations", ivm.Mod{Kind: ivm.ModUpdate, Key: []storage.Value{storage.I(k)},
				Row: storage.Row{storage.I(k), storage.S(regionName(rng.Intn(12)))}}
		}
	}
}

// TestFanoutProbesAndProducts pins the join work of a seeded stream
// through the fanout catalogue — the bucket lookups and the products
// built, each once per port group — and everything the delta logs were
// sent, rows, weights and coordinates in order, to what offering every
// delta and product to every join of its port group gives.
func TestFanoutProbesAndProducts(t *testing.T) {
	g := NewGraph(regionalDB(t, 240, 20, regionNames(12)))
	for _, q := range fanoutCatalogue() {
		p, err := ivm.PlanView(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Subscribe(p); err != nil {
			t.Fatal(err)
		}
	}
	recs := map[*deltaLog]*deltaLog{}
	recordLogs(g, recs)
	fanoutStream(t, g, 2000)
	if st := g.Stats(); st.Probes != 2573 || st.Products != 132925 {
		t.Fatalf("the stream made %d probes and %d products, want 2573 and 132925", st.Probes, st.Products)
	}
	h := fnv.New64a()
	for _, l := range g.logs {
		fmt.Fprintf(h, "%s\n", srcOf(g, l).sig())
		for _, d := range recs[l].deltas {
			fmt.Fprintf(h, "%v %d %v\n", d.Row, d.W, d.Coord)
		}
	}
	if got, want := h.Sum64(), uint64(0xb597bd38d0e71f96); got != want {
		t.Fatalf("the logs were sent deltas hashing to %#x, want %#x", got, want)
	}
}

// TestFanoutTrimCounts pins the state work of fanoutStream's stream
// through the fanout catalogue under partial drains and a trim every 8
// steps: what the trims examined, what the arrangements hold, and what
// the drains folded and walked. The counts are those of netting each
// bucket's covered deltas in arrival order into its base by a linear
// search, and of folding each covered delta once.
func TestFanoutTrimCounts(t *testing.T) {
	g := NewGraph(regionalDB(t, 240, 20, regionNames(12)))
	var handles []*ViewHandle
	for _, q := range fanoutCatalogue() {
		handles = append(handles, subscribeQuery(t, g, q))
	}
	next := fanoutMods()
	drains := rand.New(rand.NewSource(51))
	for step := 0; step < 200; step++ {
		for i := 0; i < 10; i++ {
			table, mod := next()
			liveIngest(t, g, table, mod)
		}
		for _, h := range handles {
			pend := h.Pending()
			if i := drains.Intn(len(pend)); pend[i] > 0 {
				if err := h.ProcessBatch(h.Aliases()[i], 1+drains.Intn(pend[i])); err != nil {
					t.Fatal(err)
				}
			}
		}
		if step%8 == 7 {
			g.Trim()
		}
	}
	st := g.Stats()
	if st.TrimVisited != 73713 || st.StateRows != 923 || st.Folds != 127450 || st.FoldVisits != 1121139 {
		t.Fatalf("TrimVisited %d, StateRows %d, Folds %d, FoldVisits %d; want %d, %d, %d, %d",
			st.TrimVisited, st.StateRows, st.Folds, st.FoldVisits, 73713, 923, 127450, 1121139)
	}
}

// TestFanoutDispatch: on the fanout catalogue, a sales delta probing the
// stations arrangement offers each station to the twelve regional joins
// by the station's region and to the unfiltered join, and a station
// delta reaches its own region's join and the unfiltered one alone.
func TestFanoutDispatch(t *testing.T) {
	g := NewGraph(regionalDB(t, 240, 20, regionNames(12)))
	for _, q := range fanoutCatalogue() {
		p, err := ivm.PlanView(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Subscribe(p); err != nil {
			t.Fatal(err)
		}
	}
	sales := g.arrs[salesByStation]
	if len(sales.groups) != 1 || len(sales.groups[0].joins) != 13 {
		t.Fatalf("%s serves %d port groups, want 1 of 13 joins", salesByStation, len(sales.groups))
	}
	stations := sales.groups[0].other
	for _, c := range []struct {
		name   string
		d      *dispatch
		others int
		lits   int
	}{
		{"sales arriving", &sales.groups[0].arriving, 13, 0},
		{"sales partner", &sales.groups[0].partner, 1, 12},
		{"stations arriving", &stations.groups[0].arriving, 1, 12},
		{"stations partner", &stations.groups[0].partner, 13, 0},
	} {
		lits := 0
		for _, ps := range c.d.byLit {
			lits += len(ps)
		}
		if len(c.d.others) != c.others || lits != c.lits {
			t.Fatalf("%s: %d joins in others and %d by literal, want %d and %d", c.name, len(c.d.others), lits, c.others, c.lits)
		}
	}
	station := storage.Row{storage.I(3), storage.S(regionName(5))}
	joins := sales.groups[0].joins
	got := sales.groups[0].partner.reach(station, new([]int))
	if len(got) != 2 || !strings.Contains(joins[got[0]].sig(), "'R05'") || joins[got[1]].rlit != nil {
		t.Fatalf("a station of R05 reaches joins %v, want R05's and then the unfiltered join's", got)
	}
}

// TestDispatchOnlyExactLiterals: a side residual is dispatched when it
// is exactly one equality of a column to a literal of its own type,
// written either way round, on either side of the join — and evaluated
// when it compares an INT column with a float, is no equality, or is two
// conjuncts.
func TestDispatchOnlyExactLiterals(t *testing.T) {
	g := NewGraph(testDB(t))
	const join = "SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND "
	for _, c := range []struct {
		where       string
		left, right bool
	}{
		{"st.region = 'EAST'", false, true},
		{"'WEST' = st.region", false, true},
		{"st.stationkey = 3", false, true},
		{"st.stationkey = 2.0", false, false},
		{"st.region <> 'EAST'", false, false},
		{"st.region = 'EAST' AND st.stationkey <> 4", false, false},
		{"s.station = 3", true, false},
		{"s.amount = 3", false, false},
	} {
		p, err := ivm.PlanView(join + c.where)
		if err != nil {
			t.Fatal(err)
		}
		h, err := g.Subscribe(p)
		if err != nil {
			t.Fatal(err)
		}
		j := h.top.(*joinNode)
		if (j.llit != nil) != c.left || (j.rlit != nil) != c.right {
			t.Fatalf("%s: dispatched on the left %v, on the right %v; want %v, %v", c.where, j.llit != nil, j.rlit != nil, c.left, c.right)
		}
	}
}
