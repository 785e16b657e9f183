package dataflow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
	"abivm/internal/testenv"
)

// summaryViews are two views that read their joins through a summary of
// sales (summarize): a regional SUM and COUNT, and the same grouped by
// region.
var summaryViews = []string{regionalQuery("EAST"), trimBenchQuery}

// flipStation is the in-place region update of station 7 a round of the
// tests below ingests: EAST on even rounds, WEST on odd ones.
func flipStation(round int) ivm.Mod {
	return ivm.Mod{
		Kind: ivm.ModUpdate,
		Key:  []storage.Value{storage.I(7)},
		Row:  storage.Row{storage.I(7), storage.S([]string{"EAST", "WEST"}[round%2])},
	}
}

// summaryWork runs rounds of one station update each over a graph
// serving only summaryViews, with rowsPerStation sales at every station,
// each round drained, checkpointed and trimmed before the next. It
// returns what the measured rounds (those after warm) cost in all: the
// products the graph built, the units the sinks folded, and the heap
// allocations of the ingests and the drains.
func summaryWork(t *testing.T, rowsPerStation, warm, measured int) (products, folds, allocs uint64) {
	t.Helper()
	g := NewGraph(sizedDB(t, 16*rowsPerStation, rowsPerStation))
	var handles []*ViewHandle
	for _, q := range summaryViews {
		h := subscribeQuery(t, g, q)
		if !h.summarized {
			t.Fatalf("%q does not read its join through a summary", q)
		}
		handles = append(handles, h)
	}
	for round := 0; round < warm+measured; round++ {
		before := g.Stats().Products
		var drained uint64
		applyLive(t, g.db, "stations", flipStation(round))
		n := mallocsOf(func() {
			if err := g.Ingest("stations", flipStation(round)); err != nil {
				t.Fatal(err)
			}
			for _, h := range handles {
				h.Stats().RowsMaterial = 0
				if err := h.ProcessBatch("st", 1); err != nil {
					t.Fatal(err)
				}
				drained += h.Stats().RowsMaterial
			}
		})
		if round >= warm {
			products += g.Stats().Products - before
			folds += drained
			allocs += n
		}
		settle(t, handles)
		g.Trim()
	}
	return products, folds, allocs
}

// TestSummaryWorkIndependentOfPartners: a station update costs views
// that read their joins through a summary the same whether 8 sales sit
// at the station or 512. Each of its two deltas builds one product for
// the summary — the sales bucket's, whatever its size — and each sink
// folds it as one unit, where a view of the join's rows has one product
// per sale built and folds each.
func TestSummaryWorkIndependentOfPartners(t *testing.T) {
	fewProducts, fewFolds, _ := summaryWork(t, 8, 0, 4)
	manyProducts, manyFolds, _ := summaryWork(t, 512, 0, 4)
	// Per round: the retraction and the insertion, each one product for
	// the one summary both joins emit; the regional view folds the one its
	// region filter accepts, the grouped view both.
	if fewProducts != 4*2 || manyProducts != fewProducts {
		t.Fatalf("4 station updates built %d products over 8 sales a station, %d over 512; want 8 each", fewProducts, manyProducts)
	}
	if fewFolds != 4*3 || manyFolds != fewFolds {
		t.Fatalf("4 station updates folded %d units over 8 sales a station, %d over 512; want 12 each", fewFolds, manyFolds)
	}
}

// TestSummaryStationUpdateAllocsIndependentOfPartners: a station
// update, ingested and drained, allocates exactly as often over 512 sales
// a station as over 8 on a graph serving only views that read their joins
// through a summary: the summaries' copies come from the graph's arena
// whatever the bucket's size, and no product of a sale is built. What it allocates at
// all — under three times an update, mostly the station's bucket tail,
// which every trim empties — is the same at any size.
func TestSummaryStationUpdateAllocsIndependentOfPartners(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	const warm, measured = 4, 64
	// The fewest of three runs: a stray runtime allocation lands in some.
	least := func(rowsPerStation int) uint64 {
		n := uint64(math.MaxUint64)
		for range 3 {
			_, _, allocs := summaryWork(t, rowsPerStation, warm, measured)
			n = min(n, allocs)
		}
		return n
	}
	few, many := least(8), least(512)
	t.Logf("%d station updates allocated %d times over 8 sales a station, %d over 512", measured, few, many)
	if few != many || few > 3*measured {
		t.Fatalf("%d station updates allocated %d times over 8 sales a station, %d over 512; want equal and at most %d",
			measured, few, many, 3*measured)
	}
}

// TestSummaryGrowsItsColumns: a join's summary sums every column the
// views reading it through the summary sum, so a view that sums a column
// the earlier ones do not makes it sum one more. A COUNT view subscribes
// first, alone on its join, whose rows nobody reads; a SUM and an AVG
// view read the same join through the summary later, and last a view of
// its rows, so the join starts building the products of the sales bases
// the summary stands for — each view subscribing after modifications the
// earlier ones have not all drained. Every view equals the classic
// maintainer fed the same modifications and drains at every step, and a
// view recovered at its cursors is none the wiser.
func TestSummaryGrowsItsColumns(t *testing.T) {
	queries := []string{
		"SELECT st.region, COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region",
		"SELECT st.region, SUM(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region",
		"SELECT st.region, AVG(s.salekey), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region",
		"SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey",
	}
	for seed := int64(1); seed <= 4; seed++ {
		db := testDB(t)
		g := NewGraph(db)
		mu := newMutator(seed)
		drains := rand.New(rand.NewSource(seed * 31))
		var pairs []*pair
		for step := 0; step < 48; step++ {
			if step%12 == 0 {
				q := queries[step/12]
				p := newPair(t, db, g, q)
				pairs = append(pairs, p)
				if p.h.summarized != (step < 36) || p.h.top != pairs[0].h.top {
					t.Fatalf("%q reads the first view's join through a summary: %v", q, p.h.summarized)
				}
			}
			tables, mods := mu.step()
			for i, mod := range mods {
				applyLive(t, db, tables[i], mod)
				if err := g.Ingest(tables[i], mod); err != nil {
					t.Fatal(err)
				}
				for _, p := range pairs {
					mod.Alias = aliasFor(p.m, tables[i])
					if err := p.m.ApplyDeferred(mod); err != nil {
						t.Fatal(err)
					}
				}
			}
			for qi, p := range pairs {
				aliases := p.m.Aliases()
				alias := aliases[drains.Intn(len(aliases))]
				pend := p.m.Pending()
				for i, a := range aliases {
					if a == alias && pend[i] > 0 {
						p.drain(alias, 1+drains.Intn(pend[i]))
					}
				}
				if drains.Intn(6) == 0 {
					p.h.Recover()
				}
				p.check(fmt.Sprintf("seed %d step %d %q", seed, step, queries[qi]))
			}
			if drains.Intn(3) == 0 {
				g.Trim()
			}
		}
		if got := len(pairs[0].h.top.(*joinNode).sumKeys); got != 2 {
			t.Fatalf("the join's summary sums %d columns, want sales.amount and sales.salekey", got)
		}
	}
}
