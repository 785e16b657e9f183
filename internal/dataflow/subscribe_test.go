package dataflow

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"abivm/internal/ivm"
)

// graphShape is everything a refused Subscribe must leave as it was: the
// stats, the operator set and which tables the graph watches.
type graphShape struct {
	stats   GraphStats
	nodes   string
	watches string
}

func shapeOf(g *Graph) graphShape {
	var sigs []string
	for _, n := range sortedByKey(g.nodes) {
		sigs = append(sigs, n.sig())
	}
	var watches []string
	for _, t := range []string{"sales", "stations", "regions", "missing"} {
		watches = append(watches, fmt.Sprintf("%s=%v", t, g.scans[t] != nil))
	}
	return graphShape{stats: g.Stats(), nodes: strings.Join(sigs, "\n"), watches: strings.Join(watches, " ")}
}

// TestFailedSubscribeBuildsNothing: a view refused at any stage that can
// reject one — resolving its scans, binding a filter's conjuncts, a
// join's keys, its side or joined-row residuals, or the sink's projection,
// or typing what it compares or sums, a column a join's summary would sum too
// — leaves a graph that already serves views exactly as it was, even
// when it reads a table no served view reads. A valid view over the same
// tables subscribes afterwards and, once drained, holds what the same
// view subscribed on a fresh graph holds.
func TestFailedSubscribeBuildsNothing(t *testing.T) {
	served := []string{
		"SELECT st.region, SUM(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region",
		"SELECT station, COUNT(*) FROM sales GROUP BY station",
	}
	for _, tc := range []struct {
		stage, bad, good, err string
	}{
		{"scan", "SELECT COUNT(*) FROM missing",
			"SELECT COUNT(*) FROM regions", "missing"},
		{"filter", "SELECT zone FROM regions WHERE region + 1 > 0",
			"SELECT zone FROM regions WHERE region <> 'A'", "string operands"},
		{"join keys", "SELECT r.zone FROM stations AS st, regions AS r WHERE st.region + 1 = r.region",
			"SELECT r.zone FROM stations AS st, regions AS r WHERE st.region = r.region", "string operands"},
		{"join side residual", "SELECT s.salekey FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region + 1 > 0",
			"SELECT s.salekey FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region = 'EAST'", "string operands"},
		{"join residual", "SELECT s.salekey FROM sales AS s, stations AS st, regions AS r WHERE s.station = st.stationkey AND st.region = r.region AND s.amount + r.zone > 0",
			"SELECT s.salekey FROM sales AS s, stations AS st, regions AS r WHERE s.station = st.stationkey AND st.region = r.region AND s.amount > 2", "string operands"},
		{"projection", "SELECT s.amount + r.zone FROM sales AS s, stations AS st, regions AS r WHERE s.station = st.stationkey AND st.region = r.region",
			"SELECT s.amount, r.zone FROM sales AS s, stations AS st, regions AS r WHERE s.station = st.stationkey AND st.region = r.region", "string operands"},
		{"aggregate argument", "SELECT SUM(st.region) FROM stations AS st",
			"SELECT SUM(st.stationkey) FROM stations AS st", "SUM(st.region) over a string argument"},
		{"comparison", "SELECT s.salekey FROM sales AS s WHERE s.amount > 'x'",
			"SELECT s.salekey FROM sales AS s WHERE s.amount > 2.5", "comparison of FLOAT with TEXT in sales.amount > 'x'"},
		// A summary of stations for regions would sum stations.region.
		{"summed column", "SELECT r.zone, AVG(st.region) FROM stations AS st, regions AS r WHERE st.region = r.region GROUP BY r.zone",
			"SELECT r.zone, AVG(st.stationkey) FROM stations AS st, regions AS r WHERE st.region = r.region GROUP BY r.zone", "AVG(st.region) over a string argument"},
	} {
		t.Run(tc.stage, func(t *testing.T) {
			db := propDB(t)
			g := NewGraph(db)
			var handles []*ViewHandle
			for _, q := range served {
				handles = append(handles, subscribeQuery(t, g, q))
			}
			gen := newPropGen(7)
			run := func(steps int) {
				for i := 0; i < steps; i++ {
					for _, tm := range gen.step() {
						applyLive(t, db, tm.table, tm.mod)
						if g.scans[tm.table] != nil {
							if err := g.Ingest(tm.table, tm.mod); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
			run(10)
			if err := handles[0].Refresh(); err != nil { // handles[1] keeps a backlog
				t.Fatal(err)
			}

			before := shapeOf(g)
			p, err := ivm.PlanView(tc.bad)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.Subscribe(p); err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("Subscribe(%q) = %v, want an error naming %q", tc.bad, err, tc.err)
			}
			if after := shapeOf(g); after != before {
				t.Fatalf("refused view changed the graph:\n%+v\nwas\n%+v", after, before)
			}

			h := subscribeQuery(t, g, tc.good)
			run(10)
			for _, x := range append(handles, h) {
				if err := x.Refresh(); err != nil {
					t.Fatal(err)
				}
			}
			checkGraphInvariants(t, "after the valid view", g)
			fresh := subscribeQuery(t, NewGraph(db), tc.good)
			if got, want := renderRows(h.Result()), renderRows(fresh.Result()); got != want {
				t.Fatalf("%q after a refused view: %s\non a fresh graph: %s", tc.good, got, want)
			}
		})
	}
}

// TestLateSubscriberMatchesRecompute: a sink's first content is the one
// its subscribe-time cursors fix, rebuilt from the graph — nothing else
// computes it. An SPJ view, a MIN/MAX view and a COUNT/SUM/AVG view that
// reads its key–FK join through a summary subscribe again and again to a
// join whose earlier sinks have drained part-way and nothing has trimmed,
// so the join's arrangements hold tails and its delta log deltas the new
// cursors cover. Right after Subscribe each new sink holds its query
// computed from scratch over the live tables.
func TestLateSubscriberMatchesRecompute(t *testing.T) {
	queries := []string{
		"SELECT s.salekey, s.amount, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey",
		"SELECT st.region, MIN(s.amount), MAX(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region",
		"SELECT st.region, COUNT(*), SUM(s.amount), AVG(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region",
	}
	for seed := int64(1); seed <= 4; seed++ {
		db := testDB(t)
		g := NewGraph(db)
		var sinks []*ViewHandle
		for _, q := range queries {
			sinks = append(sinks, subscribeQuery(t, g, q))
		}
		if !sinks[2].summarized || sinks[0].summarized || sinks[1].summarized {
			t.Fatal("only the COUNT/SUM/AVG view reads its join through a summary")
		}
		mu := newMutator(seed)
		drains := rand.New(rand.NewSource(seed * 13))
		for step := 0; step < 24; step++ {
			tables, mods := mu.step()
			for i, mod := range mods {
				applyLive(t, db, tables[i], mod)
				if err := g.Ingest(tables[i], mod); err != nil {
					t.Fatal(err)
				}
			}
			for _, h := range sinks {
				pend := h.Pending()
				if i := drains.Intn(len(pend)); pend[i] > 0 {
					if err := h.ProcessBatch(h.Aliases()[i], 1+drains.Intn(pend[i])); err != nil {
						t.Fatal(err)
					}
				}
			}
			if step%8 != 7 {
				continue
			}
			for _, q := range queries {
				late := subscribeQuery(t, g, q)
				ctx := fmt.Sprintf("seed %d step %d: %s", seed, step, q)
				j := late.top.(*joinNode)
				if len(j.lstate.log)+len(j.rstate.log) == 0 ||
					!slices.ContainsFunc(late.log.deltas, func(d Delta) bool { return late.reads(d.Coord) }) {
					t.Fatalf("%s: subscribed beside no arrangement tail or no logged delta it reads", ctx)
				}
				if got, want := canonical(late.Result()), recompute(t, db, q); got != want {
					t.Fatalf("%s: first content\n%s\nrecomputed\n%s", ctx, got, want)
				}
				sinks = append(sinks, late)
			}
		}
	}
}
