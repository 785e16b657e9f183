package dataflow

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
	"abivm/internal/testenv"
)

// failingSink is a WAL sink that refuses one drain record when armed —
// the only way a handle's WAL commit fails.
type failingSink struct{ armed bool }

func (f *failingSink) AppendRecord(rec ivm.WALRecord) error {
	if f.armed && rec.Kind == ivm.WALDrain {
		f.armed = false
		return errors.New("sink down")
	}
	return nil
}

func (f *failingSink) TruncateRecords(uint64) error { return nil }

// TestRecoverThenCheckpointKeepsPatching runs two handles of one view
// through the same modifications and drains, with the trim a broker runs
// at its checkpoint cadence in between. One of them crashes and recovers
// twice, with drains and a trim in between — so the second recovery
// rebuilds at cursors a recovered sink advanced, from a log a trim cut —
// and suffers one WAL commit that fails and unfolds; the other is never
// disturbed. They must agree throughout.
func TestRecoverThenCheckpointKeepsPatching(t *testing.T) {
	for qi, query := range equivalenceQueries {
		t.Run(fmt.Sprintf("view%d", qi), func(t *testing.T) {
			db := testDB(t)
			g := NewGraph(db)
			p, err := ivm.PlanView(query)
			if err != nil {
				t.Fatal(err)
			}
			sink := &failingSink{}
			var hs [2]*ViewHandle // 0 crashes, 1 is the control
			for i := range hs {
				if hs[i], err = g.Subscribe(p); err != nil {
					t.Fatal(err)
				}
			}
			wal := ivm.NewWAL()
			wal.SetSink(sink)
			hs[0].AttachWAL(wal)
			check := func(ctx string) {
				t.Helper()
				if got, want := renderRows(hs[0].Result()), renderRows(hs[1].Result()); got != want {
					t.Fatalf("%s: content diverged\ncrashed: %s\ncontrol: %s", ctx, got, want)
				}
				if got, want := fmt.Sprint(hs[0].Pending()), fmt.Sprint(hs[1].Pending()); got != want {
					t.Fatalf("%s: backlog %s, control has %s", ctx, got, want)
				}
			}
			mu := newMutator(int64(31 + qi))
			drains := rand.New(rand.NewSource(int64(7 + qi)))
			unfolded := false
			steps := func(ctx string, n int, failOne bool) {
				t.Helper()
				for s := 0; s < n; s++ {
					tables, mods := mu.step()
					for i, mod := range mods {
						applyLive(t, db, tables[i], mod)
						if g.scans[tables[i]] == nil {
							continue
						}
						if err := g.Ingest(tables[i], mod); err != nil {
							t.Fatal(err)
						}
					}
					aliases := hs[1].Aliases()
					ai := drains.Intn(len(aliases))
					avail := hs[1].Pending()[ai]
					if avail == 0 {
						continue
					}
					k := 1 + drains.Intn(avail)
					if failOne && !unfolded {
						before := renderRows(hs[0].Result())
						sink.armed = true
						if err := hs[0].ProcessBatch(aliases[ai], k); err == nil {
							t.Fatal("drain committed through a failing WAL sink")
						}
						unfolded = true
						if got := renderRows(hs[0].Result()); got != before {
							t.Fatalf("%s: failed commit left the fold behind\nbefore: %s\nafter:  %s", ctx, before, got)
						}
					}
					for _, h := range hs {
						if err := h.ProcessBatch(aliases[ai], k); err != nil {
							t.Fatal(err)
						}
					}
					check(fmt.Sprintf("%s step %d", ctx, s))
				}
			}
			crash := func(ctx string) {
				t.Helper()
				hs[0].Recover()
				check(ctx)
			}

			steps("first interval", 10, false)
			g.Trim()
			steps("interval with a failed commit", 10, true)
			if !unfolded {
				t.Fatal("no drain was due in the interval that should fail one")
			}
			g.Trim()
			steps("before the first crash", 6, false)
			crash("first recovery")
			steps("between the crashes", 10, false)
			g.Trim()
			steps("before the second crash", 6, false)
			crash("second recovery")
			steps("after the second crash", 6, false)
			g.Trim()
			crash("recovery after a trim")
		})
	}
}

// mallocsOf counts the heap allocations of f on one P, as
// testing.AllocsPerRun does, for code that cannot simply run again.
func mallocsOf(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// updateSale is an in-place amount update of one sale of sizedDB.
func updateSale(key int64, rowsPerStation int, amount float64) ivm.Mod {
	return ivm.Mod{
		Kind: ivm.ModUpdate,
		Key:  []storage.Value{storage.I(key)},
		Row:  storage.Row{storage.I(key), storage.I(key / int64(rowsPerStation)), storage.F(amount)},
	}
}

// TestSinkDrainAllocsIndependentOfPending: a drain that folds eight
// sales updates into existing groups allocates the same — nothing for the
// log, nothing per covered delta — whether the sink's delta log holds 16
// or 1,024 deltas the drain does not cover, and however many earlier
// drains' deltas still wait in it for a trim.
func TestSinkDrainAllocsIndependentOfPending(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	const rowsPerStation, batch, rounds = 8, 8, 4
	drainAllocs := func(backlogStations int) (allocs uint64, pending int) {
		g := NewGraph(sizedDB(t, 2_000, rowsPerStation))
		h := subscribeQuery(t, g, rawJoinQuery)
		// The uncovered backlog: region flips of the first stations, each
		// retracting and re-adding its eight sales, never drained.
		for st := 0; st < backlogStations; st++ {
			mod := ivm.Mod{Kind: ivm.ModUpdate, Key: []storage.Value{storage.I(int64(st))},
				Row: storage.Row{storage.I(int64(st)), storage.S("NORTH")}}
			liveIngest(t, g, "stations", mod)
		}
		pending = len(h.log.deltas)
		// Sales of stations the backlog leaves alone.
		next := int64(1_000)
		for round := 0; round < rounds; round++ {
			for i := 0; i < batch; i++ {
				liveIngest(t, g, "sales", updateSale(next, rowsPerStation, float64(10+round)))
				next++
			}
			allocs = mallocsOf(func() {
				if err := h.ProcessBatch("s", batch); err != nil {
					t.Fatal(err)
				}
			})
		}
		// A drain moves nothing: the deltas it folded (old and new row of
		// each update) wait where they arrived until a trim.
		if want := pending + rounds*2*batch; len(h.log.deltas) != want {
			t.Fatalf("log holds %d deltas after %d drains, want the backlog and the folded ones, %d", len(h.log.deltas), rounds, want)
		}
		g.Trim()
		if len(h.log.deltas) != pending {
			t.Fatalf("trim left %d deltas, want the uncovered backlog of %d", len(h.log.deltas), pending)
		}
		return allocs, pending
	}
	small, smallPending := drainAllocs(1)
	large, largePending := drainAllocs(64)
	if smallPending != 16 || largePending != 1_024 {
		t.Fatalf("backlogs of %d and %d deltas, want 16 and 1,024", smallPending, largePending)
	}
	// Sixteen deltas are covered (old and new row of eight sales).
	if small != large || small > 2*batch {
		t.Fatalf("a drain of %d updates allocated %d times beside 16 pending deltas, %d beside 1,024; want equal and at most %d",
			batch, small, large, 2*batch)
	}
}

// TestIngestAllocsIndependentOfViews: one sales update allocates the same
// whether 1 view or 12 with 12 different SELECT lists sit on the join it
// flows through — each of its two deltas probes the join once, building
// its product's row and coordinate once, and the join's one delta log
// keeps them as they are for every sink; nothing per view runs before a
// drain.
func TestIngestAllocsIndependentOfViews(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	const rowsPerStation = 8
	ingestAllocs := func(views int) (allocs uint64) {
		g := NewGraph(sizedDB(t, 2_000, rowsPerStation))
		handles := make([]*ViewHandle, views)
		for i := range handles {
			p, err := ivm.PlanView(fmt.Sprintf("SELECT st.region, SUM(s.amount + %d), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region", i))
			if err != nil {
				t.Fatal(err)
			}
			if handles[i], err = g.Subscribe(p); err != nil {
				t.Fatal(err)
			}
		}
		if st := g.Stats(); st.Nodes != 3 || st.Views != views {
			t.Fatalf("%d views built %+v, want them all on one join", views, st)
		}
		// Steady state: the log has held two deltas before and is emptied,
		// capacity kept, by the drains and the trim that end a round.
		for round := 0; round < 4; round++ {
			mod := updateSale(7, rowsPerStation, float64(10+round))
			applyLive(t, g.db, "sales", mod)
			allocs = mallocsOf(func() {
				if err := g.Ingest("sales", mod); err != nil {
					t.Fatal(err)
				}
			})
			for _, h := range handles {
				if h.log != handles[0].log {
					t.Fatal("two sinks on one join read different logs")
				}
			}
			if n := len(handles[0].log.deltas); n != 2 || g.Stats().RetainedDeltas != 2 {
				t.Fatalf("the join logs %d deltas of one update (%d retained), want its retraction and insertion once",
					n, g.Stats().RetainedDeltas)
			}
			settle(t, handles)
			g.Trim()
		}
		return allocs
	}
	if one, twelve := ingestAllocs(1), ingestAllocs(12); one != twelve {
		t.Fatalf("one sales update allocated %d times into 1 view, %d into 12", one, twelve)
	}
}

// TestAggregateDrainAllocsNothing: at steady state — groups present, no
// redo log attached — a drain of an aggregate view allocates nothing,
// whether it covers 16 deltas or 128: projecting a covered delta into the
// handle's scratch row and folding it into its group's exact sums run in
// memory that is already there.
func TestAggregateDrainAllocsNothing(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	const rowsPerStation = 8
	g := NewGraph(sizedDB(t, 2_000, rowsPerStation))
	handles := subscribeRegional(t, g, 0)
	h := handles[0]
	next := 0
	for _, batch := range []int{100, 8, 64, 8} {
		for round := 0; round < 3; round++ {
			updateRound(t, g, batch, rowsPerStation, &next)
			allocs := mallocsOf(func() {
				if err := h.ProcessBatch("s", batch); err != nil {
					t.Fatal(err)
				}
			})
			if batch < 100 && allocs != 0 {
				t.Fatalf("a drain covering %d deltas allocated %d times, want 0", 2*batch, allocs)
			}
			settle(t, handles)
		}
	}
}

// TestCancellingDrainLeavesNothing: a drain whose deltas cancel — two
// sales inserted and deleted again, one updated to another station and
// amount and back — leaves every view as it was and no entry behind: not
// the group the station-9 sale opened in the view over sales alone, nor
// the SPJ rows, though the sink folds each covered delta rather than net
// weights. Refused by its WAL append first, the same drain leaves the
// content exactly as it was too, and so does a recovery after either —
// rebuilt from the graph, which takes back the cancelling deltas the
// cursors do not cover, if any: the amounts include 1e300 and 0.1, so only
// an exact sum comes back bit for bit.
func TestCancellingDrainLeavesNothing(t *testing.T) {
	for _, query := range []string{
		"SELECT s.salekey, s.amount, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey",
		"SELECT st.region, SUM(s.amount), MIN(s.amount), MAX(s.amount), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region",
		"SELECT station, SUM(amount), AVG(amount), COUNT(*) FROM sales GROUP BY station",
	} {
		db := testDB(t)
		g := NewGraph(db)
		p, err := ivm.PlanView(query)
		if err != nil {
			t.Fatal(err)
		}
		h, err := g.Subscribe(p)
		if err != nil {
			t.Fatal(err)
		}
		sink := &failingSink{}
		wal := ivm.NewWAL()
		wal.SetSink(sink)
		h.AttachWAL(wal)
		content := renderRows(h.Result())
		sale := func(key, station int64, amount float64) storage.Row {
			return storage.Row{storage.I(key), storage.I(station), storage.F(amount)}
		}
		key := func(k int64) []storage.Value { return []storage.Value{storage.I(k)} }
		mods := []ivm.Mod{
			{Kind: ivm.ModInsert, Row: sale(100, 1, 1e300)},
			{Kind: ivm.ModInsert, Row: sale(101, 9, 0.1)},
			{Kind: ivm.ModUpdate, Key: key(3), Row: sale(3, 4, 0.3)},
			{Kind: ivm.ModDelete, Key: key(100)},
			{Kind: ivm.ModUpdate, Key: key(3), Row: sale(3, 3, 4)},
			{Kind: ivm.ModDelete, Key: key(101)},
		}
		for _, mod := range mods {
			applyLive(t, db, "sales", mod)
			if err := g.Ingest("sales", mod); err != nil {
				t.Fatal(err)
			}
		}
		alias := h.Aliases()[0]
		unchanged := func(ctx string) {
			t.Helper()
			if got := renderRows(h.Result()); got != content {
				t.Fatalf("%s: %s\ncontent %s\nwant    %s", query, ctx, got, content)
			}
			h.Recover()
			if got := renderRows(h.Result()); got != content {
				t.Fatalf("%s: %s, then recovered\ncontent %s\nwant    %s", query, ctx, got, content)
			}
		}
		sink.armed = true
		if err := h.ProcessBatch(alias, len(mods)); err == nil {
			t.Fatalf("%s: drain committed through a failing WAL sink", query)
		}
		unchanged("a refused drain left its fold behind")
		if err := h.ProcessBatch(alias, len(mods)); err != nil {
			t.Fatal(err)
		}
		unchanged("a cancelling drain changed the view")
		g.Trim()
		if len(h.log.deltas) != 0 || fmt.Sprint(h.Pending()) != fmt.Sprint(make([]int, len(h.Aliases()))) {
			t.Fatalf("%s: %d deltas and a backlog of %v left after a trim at full coverage", query, len(h.log.deltas), h.Pending())
		}
	}
}

// TestSinkBuffersEachDeltaOnce holds every delta log, at every step of a
// run with lagging drains, trims and a recovery, against an independent
// recording of what its operator emitted. The first query is subscribed
// twice: its two sinks read one log, which holds each delta once. After
// each trim a log is exactly the emitted deltas some reader's cursors do
// not cover, in emission order — drains and recoveries move nothing — and
// RetainedDeltas is the sum of the logs because no other copy exists.
func TestSinkBuffersEachDeltaOnce(t *testing.T) {
	db := testDB(t)
	g := NewGraph(db)
	queries := append([]string{equivalenceQueries[0]}, equivalenceQueries...)
	var sinks []*ViewHandle
	recs := map[*deltaLog]*deltaLog{}
	for _, q := range queries {
		p, err := ivm.PlanView(q)
		if err != nil {
			t.Fatal(err)
		}
		h, err := g.Subscribe(p)
		if err != nil {
			t.Fatal(err)
		}
		recordLogs(g, recs)
		sinks = append(sinks, h)
	}
	if sinks[0].log != sinks[1].log || len(sinks[0].log.readers) != 2 || len(g.logs) != len(queries)-1 {
		t.Fatalf("%d logs for %d queries: the repeated query's two sinks must read one", len(g.logs), len(queries))
	}
	check := func(ctx string) {
		t.Helper()
		checkLogContents(t, ctx, g, recs)
		total := 0
		for _, l := range g.logs {
			total += len(l.deltas)
		}
		if got := g.Stats().RetainedDeltas; got != total {
			t.Fatalf("%s: RetainedDeltas = %d, the logs hold %d", ctx, got, total)
		}
		checkGraphInvariants(t, ctx, g)
	}
	mu := newMutator(53)
	rng := rand.New(rand.NewSource(59))
	for step := 0; step < 40; step++ {
		ctx := fmt.Sprintf("step %d", step)
		tables, mods := mu.step()
		for i, mod := range mods {
			applyLive(t, db, tables[i], mod)
			if err := g.Ingest(tables[i], mod); err != nil {
				t.Fatal(err)
			}
		}
		for _, h := range sinks {
			pend := h.Pending()
			for i, alias := range h.Aliases() {
				if pend[i] > 0 && rng.Intn(2) == 0 {
					if err := h.ProcessBatch(alias, 1+rng.Intn(pend[i])); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		check(ctx)
		g.Trim()
		check(ctx + " trimmed")
		if step%9 == 8 {
			i := rng.Intn(len(sinks))
			h := sinks[i]
			content, backlog := renderRows(h.Result()), fmt.Sprint(h.Pending())
			h.Recover()
			if renderRows(h.Result()) != content || fmt.Sprint(h.Pending()) != backlog {
				t.Fatalf("%s: sink %d recovered to a different state", ctx, i)
			}
			check(ctx + " recovered")
		}
	}
}

// TestDeltaLogCapacitySettles: a delta log whose length at a trim swings
// at random between 8 and 88 deltas settles on one capacity: after the
// first 8 trims, no append grows it and no trim gives any back, where
// capacity fitted to the last length alone changed 114 times in the next
// 192 — given back whenever the length fell by half, grown again when it
// rose. What a stalled reader held is still given back at the trim after
// the one that drops it.
func TestDeltaLogCapacitySettles(t *testing.T) {
	l := &deltaLog{wm: make([]uint64, 1), ctr: &counters{}}
	reader := &ViewHandle{log: l, cursors: []uint64{0}}
	l.readers = []*ViewHandle{reader}
	var coord uint64
	changes, last := 0, 0
	noteCap := func(counted bool) {
		if c := cap(l.deltas); c != last {
			last = c
			if counted {
				changes++
			}
		}
	}
	cycle := func(n int, counted bool) {
		for range n {
			coord++
			l.onDelta(Delta{W: 1, Coord: Coord{coord}})
			noteCap(counted)
		}
		reader.cursors[0] = coord
		reader.skipCovered()
		l.trim()
		noteCap(counted)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		cycle(8+rng.Intn(81), i >= 8)
	}
	if changes != 0 {
		t.Fatalf("the capacity changed %d times over 192 trims of a log 8 to 88 deltas long, want none", changes)
	}
	cycle(20000, false) // a stalled reader drains
	cycle(50, false)
	if c := cap(l.deltas); c > 2*(50+logSwing+logSlack) {
		t.Fatalf("a log of 50 deltas keeps the capacity of %d after a stall", c)
	}
}
