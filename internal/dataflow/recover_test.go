package dataflow

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"abivm/internal/ivm"
)

// recoverPair is one view held twice: h on the graph whose sinks crash,
// twin on a graph fed the same modifications and drains that never
// crashes, checkpoints or trims.
type recoverPair struct {
	h, twin *ViewHandle
}

// TestRecoverRebuildsFromGraph: a sink's checkpoint is its cursors, and
// Recover rebuilds the content from the top operator's present output
// less the logged deltas those cursors do not cover. Sinks crash at
// random points — after trims, with cursors ahead of their checkpoint
// and logs holding deltas the checkpoint does not cover — and each
// recovered view must equal its twin byte for byte, backlog included.
// The views: every equivalence query; a three-way join, whose outer
// arrangement holds the inner join's products; a table-free conjunct,
// which the join above the spine's first pair holds as its residual; a
// filter over a scan; a sink that subscribes late to a
// log two readers already share; and a sink whose co-reader has just
// been released, its log trimmed to what the remaining readers have not
// checkpointed.
func TestRecoverRebuildsFromGraph(t *testing.T) {
	queries := append(slices.Clone(equivalenceQueries),
		propQueries[3], // three-way join
		propQueries[6], // table-free conjunct: the join's residual
		"SELECT s.salekey, s.amount FROM sales AS s WHERE s.amount > 6",
	)
	const threeWay, tableFree, filterScan = 5, 6, 7
	lagging := 0
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 6151))
			live := propDB(t)
			crash, twin := NewGraph(live), NewGraph(live)
			subscribe := func(query string) *recoverPair {
				t.Helper()
				p, err := ivm.PlanView(query)
				if err != nil {
					t.Fatal(err)
				}
				var rp recoverPair
				if rp.h, err = crash.Subscribe(p); err != nil {
					t.Fatal(err)
				}
				if rp.twin, err = twin.Subscribe(p); err != nil {
					t.Fatal(err)
				}
				rp.h.AttachWAL(ivm.NewWAL())
				rp.h.SetNamespace(query)
				if err := rp.h.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				return &rp
			}
			var sinks []*recoverPair
			for _, q := range queries {
				sinks = append(sinks, subscribe(q))
			}
			if j, ok := sinks[threeWay].h.top.(*joinNode); !ok || len(j.tables()) != 3 {
				t.Fatalf("three-way view's top operator is %T", sinks[threeWay].h.top)
			}
			if j, ok := sinks[tableFree].h.top.(*joinNode); !ok || len(j.where) == 0 {
				t.Fatalf("table-free conjunct's top operator is %T, not a join holding it as its residual", sinks[tableFree].h.top)
			}
			if f, ok := sinks[filterScan].h.top.(*filterNode); !ok {
				t.Fatalf("filter-over-scan view's top operator is %T", sinks[filterScan].h.top)
			} else if _, ok := f.child.(*scanNode); !ok {
				t.Fatalf("filter-over-scan view filters a %T", f.child)
			}
			// The co-reader shares sinks[1]'s log until it is released.
			co := subscribe(queries[1])
			sinks = append(sinks, co)
			lateAt, releaseAt := 8+rng.Intn(8), 20+rng.Intn(8)

			check := func(ctx string, rp *recoverPair) {
				t.Helper()
				if got, want := renderRows(rp.h.Result()), renderRows(rp.twin.Result()); got != want {
					t.Fatalf("%s: %s\nrecovered: %s\ntwin:      %s", ctx, rp.h.ns, got, want)
				}
				if got, want := fmt.Sprint(rp.h.Pending()), fmt.Sprint(rp.twin.Pending()); got != want {
					t.Fatalf("%s: %s backlog %s, twin %s", ctx, rp.h.ns, got, want)
				}
			}
			crashAt := func(ctx string, rp *recoverPair) {
				t.Helper()
				h := rp.h
				if !slices.Equal(h.cursors, h.durable) && slices.ContainsFunc(h.log.deltas, func(d Delta) bool {
					return !d.Coord.covered(h.durable)
				}) {
					lagging++
				}
				if err := h.Recover(); err != nil {
					t.Fatal(err)
				}
				check(ctx+" recovered", rp)
			}

			gen := newPropGen(seed)
			for step := 0; step < 40; step++ {
				ctx := fmt.Sprintf("step %d", step)
				for _, tm := range gen.step() {
					applyLive(t, live, tm.table, tm.mod)
					for _, g := range []*Graph{crash, twin} {
						if g.Watches(tm.table) {
							if err := g.Ingest(tm.table, tm.mod); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				for _, rp := range sinks {
					pend := rp.h.Pending()
					for i, alias := range rp.h.Aliases() {
						if pend[i] == 0 || rng.Intn(3) == 0 {
							continue
						}
						k := 1 + rng.Intn(pend[i])
						for _, h := range []*ViewHandle{rp.h, rp.twin} {
							if err := h.ProcessBatch(alias, k); err != nil {
								t.Fatal(err)
							}
						}
					}
					if rng.Intn(4) == 0 {
						if err := rp.h.Checkpoint(); err != nil {
							t.Fatal(err)
						}
						if err := rp.h.WAL().TruncateThrough(rp.h.TipLSN()); err != nil {
							t.Fatal(err)
						}
					}
				}
				if rng.Intn(2) == 0 {
					crash.Trim()
					checkGraphInvariants(t, ctx+" trimmed", crash)
				}
				for _, rp := range sinks {
					if rng.Intn(5) == 0 {
						crashAt(ctx, rp)
					}
					check(ctx, rp)
				}
				if step == lateAt {
					// A third reader of the log sinks[1] and the co-reader
					// share, holding deltas neither has checkpointed.
					late := subscribe(queries[1])
					if late.h.log != sinks[1].h.log || len(late.h.log.readers) != 3 {
						t.Fatalf("late sink reads a log of %d readers, not the one sinks[1] shares", len(late.h.log.readers))
					}
					crashAt(ctx+" late", late)
					sinks = append(sinks, late)
				}
				if step == releaseAt {
					crash.Release(co.h)
					twin.Release(co.twin)
					sinks = slices.DeleteFunc(sinks, func(rp *recoverPair) bool { return rp == co })
					crashAt(ctx+" co-reader released", sinks[1])
				}
			}
		})
	}
	if lagging == 0 {
		t.Fatal("no sink crashed with cursors ahead of its checkpoint and uncovered deltas in its log")
	}
}
