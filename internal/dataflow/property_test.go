package dataflow

import (
	"fmt"
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
	wal     *ivm.WAL // on handles[0], the trimmed graph's
	shadow  *storage.DB
	applied map[string]int // per table: log prefix applied to shadow
}

type propWorld struct {
	t       *testing.T
	live    *storage.DB
	log     map[string][]ivm.Mod
	trimmed *Graph
	never   *Graph
	fresh   []*Graph
	views   []*propView
	recs    map[*deltaLog]*recorder // what each log of the trimmed graph was sent
}

func (w *propWorld) subscribe(query string, lag float64, late bool) {
	w.t.Helper()
	graphs := []*Graph{w.trimmed, w.never}
	if late {
		f := NewGraph(w.live)
		w.fresh = append(w.fresh, f)
		graphs = append(graphs, f)
	}
	v := &propView{query: query, lag: lag, wal: ivm.NewWAL(), shadow: propDB(w.t), applied: map[string]int{}}
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
	v.handles[0].AttachWAL(v.wal)
	if err := v.handles[0].Checkpoint(); err != nil {
		w.t.Fatal(err)
	}
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
		if !g.Watches(tm.table) {
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
// O(1) counters and the layout rules, as they stand after a trim: a
// propagated delta waits in the delta log of the operator that emitted it
// and nowhere else — one log per operator with sinks, its edge exactly
// once, read by exactly the sinks over that operator — no logged delta is
// one every reader's last checkpoint covers, and each reader's walk
// starts at its first delta its cursors do not cover; every arrangement
// is read by at least one join side, is its child's edge exactly once and
// is walked once however many joins share it; base entries distinct and
// non-zero within a bucket, every bucket stored under the key it
// remembers, touched = the buckets with a non-empty tail, no empty
// buckets, capacity slack bounded.
func checkGraphInvariants(t *testing.T, ctx string, g *Graph) {
	t.Helper()
	rows, retained, sinks, sides, joins := 0, 0, 0, 0, 0
	for _, l := range g.logs {
		if g.nodes[l.src.sig()] != l.src || edgesTo(l.src, l) != 1 {
			t.Fatalf("%s: the log of %s hangs off an operator the graph does not hold, or not once", ctx, l.src.sig())
		}
		if len(l.readers) == 0 {
			t.Fatalf("%s: the log of %s kept with no reader", ctx, l.src.sig())
		}
		retained += len(l.deltas)
		for _, d := range l.deltas {
			if !slices.ContainsFunc(l.readers, func(h *ViewHandle) bool { return !d.Coord.covered(h.durable) }) {
				t.Fatalf("%s: the log of %s holds %v, which every reader's checkpoint covers", ctx, l.src.sig(), d.Coord)
			}
		}
		for _, h := range l.readers {
			sinks++
			if h.log != l || h.top != l.src || !slices.Contains(g.views, h) {
				t.Fatalf("%s: sink %q reads the log of %s but is not a sink over it", ctx, h.ns, l.src.sig())
			}
			if h.from > len(l.deltas) {
				t.Fatalf("%s: sink %q starts its walk at %d of %d", ctx, h.ns, h.from, len(l.deltas))
			}
			// Covered up to from, and not at it.
			for i, d := range l.deltas[:min(h.from+1, len(l.deltas))] {
				if d.Coord.covered(h.cursors) != (i < h.from) {
					t.Fatalf("%s: sink %q starts its walk at %d of %d, but its cursors %v cover delta %d at %v: %v",
						ctx, h.ns, h.from, len(l.deltas), h.cursors, i, d.Coord, i >= h.from)
				}
			}
		}
	}
	if sinks != len(g.views) {
		t.Fatalf("%s: %d sinks read logs, %d are attached", ctx, sinks, len(g.views))
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
		sideRows, withTail := 0, 0
		for key, b := range a.buckets {
			if len(b.base)+len(b.tail) == 0 {
				t.Fatalf("%s: %s: empty bucket %q kept", ctx, id, key)
			}
			if b.key != key {
				t.Fatalf("%s: %s: bucket stored under %q remembers %q", ctx, id, key, b.key)
			}
			if cap(b.base) > 2*len(b.base)+1 || cap(b.tail) > 2*len(b.tail)+1 {
				t.Fatalf("%s: %s: bucket %q slack: base %d/%d tail %d/%d", ctx, id, key,
					len(b.base), cap(b.base), len(b.tail), cap(b.tail))
			}
			sideRows += len(b.base) + len(b.tail)
			if len(b.tail) > 0 {
				withTail++
			}
			seen := map[string]bool{}
			for _, e := range b.base {
				rk := storage.EncodeKey(e.row...)
				if e.w == 0 || seen[rk] {
					t.Fatalf("%s: %s: bucket %q base holds a zero or repeated row %v", ctx, id, key, e.row)
				}
				seen[rk] = true
			}
		}
		if withTail != len(a.touched) {
			t.Fatalf("%s: %s: %d touched keys, %d buckets with a tail", ctx, id, len(a.touched), withTail)
		}
		for _, b := range a.touched {
			if a.buckets[b.key] != b || len(b.tail) == 0 {
				t.Fatalf("%s: %s: touched bucket %q is not held or has no tail", ctx, id, b.key)
			}
		}
		rows += sideRows
	}
	if sides != 2*joins {
		t.Fatalf("%s: %d join sides attached to arrangements, %d joins", ctx, sides, joins)
	}
	st := g.Stats()
	if st.StateRows != rows || st.RetainedDeltas != retained || st.Views != sinks {
		t.Fatalf("%s: counters say %d state rows, %d retained, %d views; walked %d, %d, %d",
			ctx, st.StateRows, st.RetainedDeltas, st.Views, rows, retained, sinks)
	}
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

// recorder is the test's own copy of everything an operator emitted.
type recorder struct{ all []Delta }

func (r *recorder) onDelta(d Delta) { r.all = append(r.all, d) }

// recordLogs puts a recorder beside every delta log that has none yet,
// right below the log's operator: called after each Subscribe, it sees
// everything the log has been sent.
func recordLogs(g *Graph, recs map[*deltaLog]*recorder) {
	for _, l := range g.logs {
		if recs[l] == nil {
			recs[l] = &recorder{}
			l.src.addOut(recs[l])
		}
	}
}

// checkLogContents holds every delta log against the recording of what
// its operator emitted: the log is exactly the emitted deltas some reader's
// checkpointed cursors do not cover — the union of the readers' uncovered
// deltas — in emission order, each the very row emitted. Checkpointed
// cursors never move back, so a delta that has left the union never
// returns to it: the recording keeps only the union.
func checkLogContents(t *testing.T, ctx string, g *Graph, recs map[*deltaLog]*recorder) {
	t.Helper()
	for _, l := range g.logs {
		want := make([]Delta, 0, len(l.deltas))
		for _, d := range recs[l].all {
			if slices.ContainsFunc(l.readers, func(h *ViewHandle) bool { return !d.Coord.covered(h.durable) }) {
				want = append(want, d)
			}
		}
		if len(l.deltas) != len(want) {
			t.Fatalf("%s: the log of %s holds %d deltas, %d emitted ones are above some reader's checkpoint",
				ctx, l.src.sig(), len(l.deltas), len(want))
		}
		for i, d := range l.deltas {
			if &d.Row[0] != &want[i].Row[0] || d.W != want[i].W || !slices.Equal(d.Coord, want[i].Coord) {
				t.Fatalf("%s: the log of %s holds %v at %d, emitted %v", ctx, l.src.sig(), d, i, want[i])
			}
		}
		recs[l].all = want
	}
}

// trim checkpoints a random subset of the trimmed graph's views (all of
// them when all is set) and collects below the resulting watermark, the
// way the broker does at checkpoint cadence.
func (w *propWorld) trim(rng *rand.Rand, all bool) {
	w.t.Helper()
	for _, v := range w.views {
		h := v.handles[0]
		if all || rng.Intn(3) > 0 {
			if err := h.Checkpoint(); err != nil {
				w.t.Fatal(err)
			}
			if err := v.wal.TruncateThrough(h.TipLSN()); err != nil {
				w.t.Fatal(err)
			}
		}
	}
	w.trimmed.Trim()
}

// TestTrimPreservesMeaning is the GC's correctness property: whatever
// the modification stream, trim schedule and per-view cursor lag, every
// view equals its query re-evaluated over the base tables at its own
// cursors — on the trimmed graph, on a graph that never trims, and for
// late subscribers on a graph built fresh when they arrived — and a view
// recovered from its checkpoint is none the wiser.
func TestTrimPreservesMeaning(t *testing.T) {
	schedules := []string{"every", "random", "never"}
	for seed := int64(1); seed <= 24; seed++ {
		schedule := schedules[seed%3]
		t.Run(fmt.Sprintf("seed=%d/%s", seed, schedule), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 7919))
			live := propDB(t)
			w := &propWorld{t: t, live: live, log: map[string][]ivm.Mod{}, trimmed: NewGraph(live), never: NewGraph(live)}
			w.recs = map[*deltaLog]*recorder{}
			for _, i := range []int{0, 1, 2, 5, 6} {
				w.subscribe(propQueries[i], rng.Float64()*0.8, false)
			}
			gen := newPropGen(seed)
			lateAt := map[int]string{
				10 + rng.Intn(10): propQueries[3],
				20 + rng.Intn(10): propQueries[7],
				30 + rng.Intn(10): propQueries[rng.Intn(len(propQueries))],
			}
			releaseAt := 45 + rng.Intn(10)
			for step := 0; step < 70; step++ {
				ctx := fmt.Sprintf("step %d", step)
				for _, tm := range gen.step() {
					w.ingest(tm)
				}
				for _, v := range w.views {
					h := v.handles[0]
					pend := h.Pending()
					for i, alias := range h.Aliases() {
						if pend[i] > 0 && rng.Float64() >= v.lag {
							w.drain(v, alias, 1+rng.Intn(pend[i]))
						}
					}
				}
				w.check(ctx)
				switch schedule {
				case "every":
					w.trim(rng, rng.Intn(2) == 0)
				case "random":
					if rng.Intn(4) == 0 {
						w.trim(rng, rng.Intn(2) == 0)
					}
				}
				if q, ok := lateAt[step]; ok {
					w.subscribe(q, rng.Float64()*0.8, true)
					w.check(ctx + " late subscribe")
				}
				if step == releaseAt {
					v := w.views[0]
					w.views = w.views[1:]
					w.trimmed.Release(v.handles[0])
					w.never.Release(v.handles[1])
				}
				if rng.Intn(8) == 0 {
					v := w.views[rng.Intn(len(w.views))]
					if err := v.handles[0].Recover(); err != nil {
						t.Fatal(err)
					}
					w.check(ctx + " recovered")
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
			w.trim(rng, true)
			w.check("final trim")
			if st := w.trimmed.Stats(); st.RetainedDeltas != 0 {
				t.Fatalf("fully covered graph retains %d deltas", st.RetainedDeltas)
			}
			for id, a := range w.trimmed.arrs {
				if len(a.touched) != 0 {
					t.Fatalf("fully covered %s keeps %d tails", id, len(a.touched))
				}
			}
		})
	}
}
