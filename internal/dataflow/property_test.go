package dataflow

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"abivm/internal/exec"
	"abivm/internal/ivm"
	"abivm/internal/plan"
	"abivm/internal/sql"
	"abivm/internal/storage"
)

// propDB builds the property test's three-table world: regions (the
// small dimension a three-way join reaches through stations), stations,
// and sales, whose generated amounts are arbitrary fractions.
func propDB(t *testing.T) *storage.DB {
	t.Helper()
	db := testDB(t)
	sch, err := storage.NewSchema("regions", []storage.Column{
		{Name: "region", Type: storage.TString},
		{Name: "zone", Type: storage.TString},
	}, "region")
	if err != nil {
		t.Fatal(err)
	}
	regions, err := db.CreateTable(sch)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []storage.Row{{storage.S("EAST"), storage.S("A")}, {storage.S("WEST"), storage.S("B")}} {
		if err := regions.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// propQueries place single-table conjuncts on every spine position — the
// leading table (the first join's lwhere), a middle and the last table
// (their joins' rwhere) — in two- and three-table views, beside
// unfiltered joins reading the same arrangements, a single-table view's
// filter and table-free conjuncts.
var propQueries = []string{
	// Last-table (dimension) filter: a station's region flip moves all its
	// sales in or out.
	"SELECT SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region = 'EAST'",
	"SELECT st.region, SUM(s.amount), MIN(s.amount), MAX(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region",
	// Leading-table (fact) filter: an in-place amount update moves one row.
	"SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND s.amount > 5",
	// Three-way join: its outer join seeds from the inner join's state.
	"SELECT r.zone, COUNT(*), SUM(s.amount) FROM sales AS s, stations AS st, regions AS r WHERE s.station = st.stationkey AND st.region = r.region GROUP BY r.zone",
	"SELECT station, AVG(amount) FROM sales GROUP BY station",
	// Three-way join filtered at the leading, the middle and the last
	// table, one literal written first.
	"SELECT r.zone, COUNT(*), SUM(s.amount) FROM sales AS s, stations AS st, regions AS r WHERE s.station = st.stationkey AND st.region = r.region AND 4 < s.amount AND st.stationkey <> 2 AND r.zone <> 'C' GROUP BY r.zone",
	// Both sides of a two-table join filtered, and a table-free conjunct.
	"SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND s.amount <= 9.5 AND st.region = 'WEST' AND 1 < 2",
	// Three-way join filtered at its last table only, and a table-free
	// conjunct.
	"SELECT s.salekey, r.zone FROM sales AS s, stations AS st, regions AS r WHERE s.station = st.stationkey AND st.region = r.region AND r.zone = 'A' AND 2 >= 1",
}

// summaryQueries sit on either side of the rule that makes a view read
// its top join's fact side through a summary: a COUNT alone and an AVG,
// grouped by a station column, do; a SUM under a filter on sales does
// not. They draw their lags, drains and recoveries
// from a generator of their own, so the views above keep every seeded
// event on the step it has without them.
var summaryQueries = []string{
	"SELECT st.region, COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region",
	"SELECT st.stationkey, AVG(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region <> 'WEST' GROUP BY st.stationkey",
	"SELECT st.region, SUM(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND s.amount > 4 GROUP BY st.region",
}

// literalQueries are sibling joins of sales and stations that differ
// only in their side residuals: the station's region or key equal to a
// literal of its own type, written either way round — which port groups
// dispatch on — beside an INT key equal to a float, an inequality and two
// conjuncts, which they evaluate, and a literal on the sales side. Like
// summaryQueries, they draw from a generator of their own.
var literalQueries = []string{
	"SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region = 'WEST'",
	"SELECT s.salekey, s.amount FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND 'EAST' = st.region",
	"SELECT st.region, COUNT(*), MAX(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.stationkey = 3 GROUP BY st.region",
	"SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.stationkey = 2.0",
	"SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region <> 'EAST'",
	"SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region = 'EAST' AND st.stationkey <> 4",
	"SELECT st.region, SUM(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND s.station = 1 GROUP BY st.region",
}

type tableMod struct {
	table string
	mod   ivm.Mod
}

// propGen generates the modification stream against a model of the live
// keys.
type propGen struct {
	rng      *rand.Rand
	nextSale int64
	sales    []int64
}

func newPropGen(seed int64) *propGen {
	g := &propGen{rng: rand.New(rand.NewSource(seed)), nextSale: 20}
	for i := int64(0); i < 20; i++ {
		g.sales = append(g.sales, i)
	}
	return g
}

func (g *propGen) saleRow(id int64) storage.Row {
	return storage.Row{storage.I(id), storage.I(int64(g.rng.Intn(6))), storage.F(float64(1+g.rng.Intn(12)) + g.rng.Float64()/3)}
}

func (g *propGen) step() []tableMod {
	var out []tableMod
	saleKey := func(id int64) []storage.Value { return []storage.Value{storage.I(id)} }
	for n := 1 + g.rng.Intn(4); n > 0; n-- {
		switch g.rng.Intn(7) {
		case 0, 1:
			id := g.nextSale
			g.nextSale++
			g.sales = append(g.sales, id)
			out = append(out, tableMod{"sales", ivm.Mod{Kind: ivm.ModInsert, Row: g.saleRow(id)}})
		case 2:
			if len(g.sales) == 0 {
				continue
			}
			i := g.rng.Intn(len(g.sales))
			id := g.sales[i]
			g.sales = append(g.sales[:i], g.sales[i+1:]...)
			out = append(out, tableMod{"sales", ivm.Mod{Kind: ivm.ModDelete, Key: saleKey(id)}})
		case 3: // in-place update: new amount, maybe a new station
			if len(g.sales) == 0 {
				continue
			}
			id := g.sales[g.rng.Intn(len(g.sales))]
			out = append(out, tableMod{"sales", ivm.Mod{Kind: ivm.ModUpdate, Key: saleKey(id), Row: g.saleRow(id)}})
		case 4: // insert then delete inside one step, so inside one trim window
			id := g.nextSale
			g.nextSale++
			out = append(out,
				tableMod{"sales", ivm.Mod{Kind: ivm.ModInsert, Row: g.saleRow(id)}},
				tableMod{"sales", ivm.Mod{Kind: ivm.ModDelete, Key: saleKey(id)}})
		case 5: // region flip
			id := int64(g.rng.Intn(6))
			region := []string{"EAST", "WEST"}[g.rng.Intn(2)]
			out = append(out, tableMod{"stations", ivm.Mod{Kind: ivm.ModUpdate,
				Key: []storage.Value{storage.I(id)}, Row: storage.Row{storage.I(id), storage.S(region)}}})
		case 6: // zone change
			region := []string{"EAST", "WEST"}[g.rng.Intn(2)]
			zone := []string{"A", "B", "C"}[g.rng.Intn(3)]
			out = append(out, tableMod{"regions", ivm.Mod{Kind: ivm.ModUpdate,
				Key: []storage.Value{storage.S(region)}, Row: storage.Row{storage.S(region), storage.S(zone)}}})
		}
	}
	return out
}

// canonical renders a result as a sorted multiset; v.String() prints the
// integer 5 and the float 5 alike, which is the tolerance the engines'
// numeric typing needs.
func canonical(rows []storage.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = r.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// recompute is the meaning of a view: the query evaluated from scratch
// by the planner and executor over db.
func recompute(t *testing.T, db *storage.DB, query string) string {
	t.Helper()
	sel, err := sql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	var scratch storage.Stats
	op, err := plan.Compile(sel, db, &plan.Options{Stats: &scratch})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return canonical(rows)
}

// propView is one logical view held three times — on the trimmed graph,
// on a graph that never trims, and (for late subscribers) on a graph
// created fresh at subscription — plus a shadow database holding the
// base tables at exactly the view's cursors.
type propView struct {
	query   string
	lag     float64 // probability of skipping a drain opportunity
	handles []*ViewHandle
	shadow  *storage.DB
	applied map[string]int // per table: log prefix applied to shadow
	rng     *rand.Rand     // the view's own draws; nil: the world's
}

// draws returns the generator a view's drains draw from.
func (v *propView) draws(world *rand.Rand) *rand.Rand {
	if v.rng != nil {
		return v.rng
	}
	return world
}

type propWorld struct {
	t       *testing.T
	live    *storage.DB
	log     map[string][]ivm.Mod
	trimmed *Graph
	never   *Graph
	fresh   []*Graph
	views   []*propView
	recs    map[*deltaLog]*deltaLog // what each log of the trimmed graph was sent
}

func (w *propWorld) subscribe(query string, lag float64, late bool) {
	w.t.Helper()
	graphs := []*Graph{w.trimmed, w.never}
	if late {
		f := NewGraph(w.live)
		w.fresh = append(w.fresh, f)
		graphs = append(graphs, f)
	}
	v := &propView{query: query, lag: lag, shadow: propDB(w.t), applied: map[string]int{}}
	for _, g := range graphs {
		p, err := ivm.PlanView(query)
		if err != nil {
			w.t.Fatal(err)
		}
		h, err := g.Subscribe(p)
		if err != nil {
			w.t.Fatal(err)
		}
		v.handles = append(v.handles, h)
	}
	recordLogs(w.trimmed, w.recs)
	for _, table := range []string{"regions", "stations", "sales"} {
		for _, mod := range w.log[table] {
			applyLive(w.t, v.shadow, table, mod)
		}
		v.applied[table] = len(w.log[table])
	}
	w.views = append(w.views, v)
}

func (w *propWorld) ingest(tm tableMod) {
	w.t.Helper()
	applyLive(w.t, w.live, tm.table, tm.mod)
	w.log[tm.table] = append(w.log[tm.table], tm.mod)
	for _, g := range append([]*Graph{w.trimmed, w.never}, w.fresh...) {
		if g.scans[tm.table] == nil {
			continue
		}
		if err := g.Ingest(tm.table, tm.mod); err != nil {
			w.t.Fatal(err)
		}
	}
}

// drain advances one alias of a view by k on every copy and brings the
// shadow tables to the same prefix.
func (w *propWorld) drain(v *propView, alias string, k int) {
	w.t.Helper()
	for _, h := range v.handles {
		if err := h.ProcessBatch(alias, k); err != nil {
			w.t.Fatal(err)
		}
	}
	h := v.handles[0]
	table := h.tabOrder[h.pos[alias]]
	from := v.applied[table]
	for _, mod := range w.log[table][from : from+k] {
		applyLive(w.t, v.shadow, table, mod)
	}
	v.applied[table] = from + k
}

func (w *propWorld) check(ctx string) {
	w.t.Helper()
	for i, v := range w.views {
		want := recompute(w.t, v.shadow, v.query)
		for c, h := range v.handles {
			if got := canonical(h.Result()); got != want {
				w.t.Fatalf("%s: view %d copy %d (0 trimmed, 1 never trimmed, 2 fresh graph) of %q\n got: %s\nwant: %s",
					ctx, i, c, v.query, got, want)
			}
		}
	}
	checkGraphInvariants(w.t, ctx, w.trimmed)
	checkLogContents(w.t, ctx, w.trimmed, w.recs)
}

// checkGraphInvariants walks the graph's state and holds it against the
// O(1) counters and the layout rules: a propagated delta waits in the
// delta log of the operator that emitted it and nowhere else — one log per
// operator with sinks, its edge exactly once, read by exactly the sinks
// over that operator — no logged delta is one the last trim's watermark
// covers, that watermark covers nothing a reader's cursors do not, and
// each reader's walk
// starts at its first delta its cursors do not cover; every arrangement
// is read by at least one join side, is its child's edge exactly once and
// is walked once however many joins share it; base entries distinct and
// non-zero within a bucket, every bucket stored under the key it
// remembers, no empty buckets, base slack bounded; every log entry's
// bucket is held under its key, each bucket's chain lists exactly its
// entries of the log in log order, and the log's capacity follows its
// peak.
func checkGraphInvariants(t *testing.T, ctx string, g *Graph) {
	t.Helper()
	rows, retained, sides, joins := 0, 0, 0, 0
	sinks := make(map[*ViewHandle]bool)
	for _, l := range g.logs {
		src := srcOf(g, l)
		if src == nil || edgesTo(src, l) != 1 {
			t.Fatalf("%s: a log hangs off no operator the graph holds, or not once", ctx)
		}
		if len(l.readers) == 0 {
			t.Fatalf("%s: the log of %s kept with no reader", ctx, src.sig())
		}
		retained += len(l.deltas)
		for _, d := range l.deltas {
			if d.Coord.covered(l.wm) {
				t.Fatalf("%s: the log of %s holds %v, which its last trim's watermark %v covers", ctx, src.sig(), d.Coord, l.wm)
			}
		}
		for r, h := range l.readers {
			if sinks[h] {
				t.Fatalf("%s: reader %d of %s reads another log too", ctx, r, src.sig())
			}
			sinks[h] = true
			if !Coord(l.wm).covered(h.cursors) {
				t.Fatalf("%s: the log of %s was trimmed to %v, past reader %d's cursors %v", ctx, src.sig(), l.wm, r, h.cursors)
			}
			if h.log != l || h.top != src {
				t.Fatalf("%s: reader %d reads the log of %s but is not a sink over it", ctx, r, src.sig())
			}
			first := slices.IndexFunc(l.deltas, func(d Delta) bool { return !d.Coord.covered(h.cursors) })
			if first < 0 {
				first = len(l.deltas)
			}
			if h.from != first {
				t.Fatalf("%s: reader %d of %s starts its walk at %d of %d, but its first delta its cursors %v do not cover is %d",
					ctx, r, src.sig(), h.from, len(l.deltas), h.cursors, first)
			}
		}
	}
	for _, n := range g.nodes {
		if j, ok := n.(*joinNode); ok {
			joins++
			for _, a := range []*arrangement{j.lstate, j.rstate} {
				if g.arrs[a.id] != a {
					t.Fatalf("%s: %s reads %s, which the graph does not hold", ctx, j.sig(), a.id)
				}
			}
		}
	}
	for id, a := range g.arrs {
		if a.ports() == 0 {
			t.Fatalf("%s: %s kept with no join side reading it", ctx, id)
		}
		sides += a.ports()
		for i, e := range a.log {
			if a.buckets[e.b.key] != e.b {
				t.Fatalf("%s: %s: log entry %d's bucket %q is not held under its key", ctx, id, i, e.b.key)
			}
		}
		if p := max(a.peak, len(a.log)); cap(a.log) > 2*(p+p/4+1) {
			t.Fatalf("%s: %s: log capacity %d over length %d, peak %d", ctx, id, cap(a.log), len(a.log), a.peak)
		}
		sideRows, chained := len(a.log), 0
		for key, b := range a.buckets {
			if len(b.base) == 0 && b.first < 0 {
				t.Fatalf("%s: %s: empty bucket %q kept", ctx, id, key)
			}
			if b.key != key {
				t.Fatalf("%s: %s: bucket stored under %q remembers %q", ctx, id, key, b.key)
			}
			if cap(b.base) > 2*len(b.base)+1 {
				t.Fatalf("%s: %s: bucket %q slack: base %d/%d", ctx, id, key, len(b.base), cap(b.base))
			}
			sideRows += len(b.base)
			last := -1
			for i := b.first; i >= 0; i = a.log[i].next {
				if i <= last || i >= len(a.log) || a.log[i].b != b {
					t.Fatalf("%s: %s: bucket %q chains log entry %d after %d: out of order, past the log or not its own", ctx, id, key, i, last)
				}
				last = i
				chained++
			}
			if last != b.last {
				t.Fatalf("%s: %s: bucket %q's chain ends at %d, it remembers %d", ctx, id, key, last, b.last)
			}
			seen := map[string]bool{}
			for _, e := range b.base {
				rk := storage.EncodeKey(e.row...)
				if e.w == 0 || seen[rk] {
					t.Fatalf("%s: %s: bucket %q base holds a zero or repeated row %v", ctx, id, key, e.row)
				}
				seen[rk] = true
			}
			if len(a.summed) > 0 {
				want := summary{sums: make([]exec.ExactSum, len(a.sumCols))}
				for _, e := range b.base {
					want.add(e.row, e.w, a.sumCols)
				}
				if b.sum.n != want.n || len(b.sum.sums) != len(want.sums) {
					t.Fatalf("%s: %s: bucket %q's summary counts %d rows over %d columns, its base %d over %d",
						ctx, id, key, b.sum.n, len(b.sum.sums), want.n, len(want.sums))
				}
				for c := range want.sums {
					if g, w := b.sum.sums[c].Float64(), want.sums[c].Float64(); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s: %s: bucket %q sums %s to %v, its base to %v", ctx, id, key, a.sumKeys[c], g, w)
					}
				}
			}
		}
		if chained != len(a.log) {
			t.Fatalf("%s: %s: the chains list %d entries, the log holds %d", ctx, id, chained, len(a.log))
		}
		rows += sideRows
	}
	if sides != 2*joins {
		t.Fatalf("%s: %d join sides attached to arrangements, %d joins", ctx, sides, joins)
	}
	st := g.Stats()
	if st.StateRows != rows || st.RetainedDeltas != retained || st.Views != len(sinks) {
		t.Fatalf("%s: counters say %d state rows, %d retained, %d views; walked %d, %d, %d",
			ctx, st.StateRows, st.RetainedDeltas, st.Views, rows, retained, len(sinks))
	}
}

// srcOf returns the operator whose delta log l is, or nil.
func srcOf(g *Graph, l *deltaLog) node {
	for _, n := range g.nodes {
		if n.base().log == l {
			return n
		}
	}
	return nil
}

// sortedByKey returns the map's values in key order.
func sortedByKey[V any](m map[string]V) []V {
	var out []V
	for _, k := range sortedKeys(m) {
		out = append(out, m[k])
	}
	return out
}

// consumers exposes an operator's edge list to the walk above; every
// operator embeds nodeBase.
func (n *nodeBase) consumers() []receiver { return n.outs }

// edgesTo counts the operator's edges to r.
func edgesTo(n node, r receiver) int {
	c := 0
	for _, o := range n.(interface{ consumers() []receiver }).consumers() {
		if o == r {
			c++
		}
	}
	return c
}

// newRecorder makes the test's own copy of everything an operator
// emitted: a delta log with counters of its own that no trim reaches.
// Being a log, it takes a join's summary products as the join's own log
// does; its one row reader makes the join emit its rows too, as to any
// consumer beside the log.
func newRecorder() *deltaLog { return &deltaLog{rowReaders: 1, ctr: &counters{}} }

// recordLogs puts a recorder beside every delta log that has none yet,
// right below the log's operator: called after each Subscribe, it sees
// everything the log has been sent.
func recordLogs(g *Graph, recs map[*deltaLog]*deltaLog) {
	for _, l := range g.logs {
		if recs[l] == nil {
			recs[l] = newRecorder()
			srcOf(g, l).addOut(recs[l])
		}
	}
}

// checkLogContents holds every delta log against the recording of what
// its operator emitted: the log is exactly the emitted deltas its last
// trim's watermark does not cover — right after a trim, the union of the
// readers' uncovered deltas — in emission order, each the very row
// emitted. Cursors never move back, and so neither does the watermark: a
// delta it has covered stays covered, and the recording keeps only the
// rest.
func checkLogContents(t *testing.T, ctx string, g *Graph, recs map[*deltaLog]*deltaLog) {
	t.Helper()
	for _, l := range g.logs {
		want := make([]Delta, 0, len(l.deltas))
		for _, d := range recs[l].deltas {
			if !d.Coord.covered(l.wm) {
				want = append(want, d)
			}
		}
		if len(l.deltas) != len(want) {
			t.Fatalf("%s: the log of %s holds %d deltas, %d emitted ones are above its last trim's watermark",
				ctx, srcOf(g, l).sig(), len(l.deltas), len(want))
		}
		for i, d := range l.deltas {
			if &d.Row[0] != &want[i].Row[0] || d.W != want[i].W || !slices.Equal(d.Coord, want[i].Coord) {
				t.Fatalf("%s: the log of %s holds %v at %d, emitted %v", ctx, srcOf(g, l).sig(), d, i, want[i])
			}
		}
		recs[l].deltas = want
	}
}

// TestTrimRepositionsReaders: one log with eight readers, their cursors
// drawn at random and each starting its walk at its first delta they do
// not cover. Trim keeps exactly the deltas the readers' least cursors do
// not cover, and moves every reader's from to the number of kept deltas
// before it — still its first uncovered delta.
func TestTrimRepositionsReaders(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := &deltaLog{wm: make([]uint64, 2), ctr: &counters{}}
		for i := 0; i < 48; i++ {
			l.deltas = append(l.deltas, Delta{Row: storage.Row{storage.I(int64(i))}, W: 1,
				Coord: Coord{uint64(1 + rng.Intn(20)), uint64(1 + rng.Intn(20))}})
		}
		l.ctr.retained = len(l.deltas)
		wm := []uint64{math.MaxUint64, math.MaxUint64}
		for range 8 {
			h := &ViewHandle{log: l, cursors: []uint64{uint64(rng.Intn(21)), uint64(rng.Intn(21))}}
			h.skipCovered()
			l.readers = append(l.readers, h)
			for i, c := range h.cursors {
				wm[i] = min(wm[i], c)
			}
		}
		var want []Delta
		wantFrom := make([]int, len(l.readers))
		for i, d := range l.deltas {
			for r, h := range l.readers {
				if h.from == i {
					wantFrom[r] = len(want)
				}
			}
			if !d.Coord.covered(wm) {
				want = append(want, d)
			}
		}
		for r, h := range l.readers {
			if h.from == len(l.deltas) {
				wantFrom[r] = len(want)
			}
		}
		l.trim()
		if len(l.deltas) != len(want) || l.ctr.retained != len(want) {
			t.Fatalf("seed %d: trim kept %d deltas (%d counted), want %d", seed, len(l.deltas), l.ctr.retained, len(want))
		}
		for i, d := range l.deltas {
			if !d.Row.SameKey(want[i].Row) {
				t.Fatalf("seed %d: kept delta %d is %v, want %v", seed, i, d.Row, want[i].Row)
			}
		}
		for r, h := range l.readers {
			if h.from != wantFrom[r] {
				t.Fatalf("seed %d: reader %d moved to %d, want %d", seed, r, h.from, wantFrom[r])
			}
		}
	}
}

// TestTrimPreservesMeaning is the GC's correctness property: whatever
// the modification stream, trim schedule and per-view cursor lag, every
// view equals its query re-evaluated over the base tables at its own
// cursors — on the trimmed graph, on a graph that never trims, and for
// late subscribers on a graph built fresh when they arrived — and a view
// recovered at its cursors is none the wiser.
func TestTrimPreservesMeaning(t *testing.T) {
	schedules := []string{"every", "random", "never"}
	for seed := int64(1); seed <= 24; seed++ {
		schedule := schedules[seed%3]
		t.Run(fmt.Sprintf("seed=%d/%s", seed, schedule), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 7919))
			live := propDB(t)
			w := &propWorld{t: t, live: live, log: map[string][]ivm.Mod{}, trimmed: NewGraph(live), never: NewGraph(live)}
			w.recs = map[*deltaLog]*deltaLog{}
			for _, i := range []int{0, 1, 2, 5, 6} {
				w.subscribe(propQueries[i], rng.Float64()*0.8, false)
			}
			own := rand.New(rand.NewSource(seed * 104729))
			for i, q := range summaryQueries {
				w.subscribe(q, own.Float64()*0.8, false)
				v := w.views[len(w.views)-1]
				v.rng = own
				if summarized := v.handles[0].summarized; summarized != (i < 2) {
					t.Fatalf("%q reads its join through a summary: %v, want %v", q, summarized, i < 2)
				}
			}
			lit := rand.New(rand.NewSource(seed * 7727))
			for _, q := range literalQueries {
				w.subscribe(q, lit.Float64()*0.8, false)
				w.views[len(w.views)-1].rng = lit
			}
			gen := newPropGen(seed)
			lateAt := map[int]string{
				10 + rng.Intn(10): propQueries[3],
				20 + rng.Intn(10): propQueries[7],
				30 + rng.Intn(10): propQueries[rng.Intn(len(propQueries))],
			}
			_ = 45 + rng.Intn(10) // an unused draw, so each seed keeps its schedule
			for step := 0; step < 70; step++ {
				ctx := fmt.Sprintf("step %d", step)
				for _, tm := range gen.step() {
					w.ingest(tm)
				}
				for _, v := range w.views {
					h, r := v.handles[0], v.draws(rng)
					pend := h.Pending()
					for i, alias := range h.Aliases() {
						if pend[i] > 0 && r.Float64() >= v.lag {
							w.drain(v, alias, 1+r.Intn(pend[i]))
						}
					}
				}
				w.check(ctx)
				switch schedule {
				case "every":
					w.trimmed.Trim()
				case "random":
					if rng.Intn(4) == 0 {
						w.trimmed.Trim()
					}
				}
				if q, ok := lateAt[step]; ok {
					w.subscribe(q, rng.Float64()*0.8, true)
					w.check(ctx + " late subscribe")
				}
				if rng.Intn(8) == 0 {
					seeded := slices.DeleteFunc(slices.Clone(w.views), func(v *propView) bool { return v.rng != nil })
					seeded[rng.Intn(len(seeded))].handles[0].Recover()
					w.check(ctx + " recovered")
				}
				if own.Intn(8) == 0 {
					w.views[5+own.Intn(len(summaryQueries))].handles[0].Recover()
					w.check(ctx + " summary view recovered")
				}
			}
			for _, v := range w.views {
				for _, h := range v.handles {
					if err := h.Refresh(); err != nil {
						t.Fatal(err)
					}
				}
				for table, from := range v.applied {
					for _, mod := range w.log[table][from:] {
						applyLive(t, v.shadow, table, mod)
					}
					v.applied[table] = len(w.log[table])
				}
			}
			w.check("final refresh")
			w.trimmed.Trim()
			w.check("final trim")
			if st := w.trimmed.Stats(); st.RetainedDeltas != 0 {
				t.Fatalf("fully covered graph retains %d deltas", st.RetainedDeltas)
			}
			for id, a := range w.trimmed.arrs {
				if len(a.log) != 0 {
					t.Fatalf("fully covered %s keeps %d tail entries", id, len(a.log))
				}
			}
		})
	}
}
