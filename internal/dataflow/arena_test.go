package dataflow

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// window identifies a slice by its first element and its length: two
// deltas carry the same window exactly when they share it by design —
// one Delta emitted to several consumers, an update's retraction and
// insertion under one coordinate, the products of one probe with a base
// partner under one shared coordinate, a scan's row retracted after it
// was inserted.
type window struct {
	first any
	n     int
}

func rowWindow(r storage.Row) window { return window{&r[0], len(r)} }
func coordWindow(c Coord) window     { return window{&c[0], len(c)} }

// TestArenaWindowsAreDisjoint runs a seeded stream of inserts, deletes
// and updates through the fanout catalogue and the three-way one and
// records every delta every operator emits. Every row and coordinate is
// capped at its length, so an append reallocates; and appending to or
// overwriting one delta's row or coordinate changes no delta that carries
// a different window — the arena never hands out memory twice, not to a
// probe whose emit reaches another probe of the same graph, not for a
// product some join rejected.
func TestArenaWindowsAreDisjoint(t *testing.T) {
	for _, tc := range []struct {
		name    string
		db      func() *storage.DB
		queries []string
	}{
		{"fanout", func() *storage.DB { return regionalDB(t, 20, 3, regionNames(12)) }, fanoutCatalogue()},
		{"three-way", func() *storage.DB { return propDB(t) }, propQueries},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := tc.db()
			g := NewGraph(db)
			for _, q := range tc.queries {
				p, err := ivm.PlanView(q)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := g.Subscribe(p); err != nil {
					t.Fatal(err)
				}
			}
			rec := newRecorder()
			for _, n := range sortedByKey(g.nodes) {
				n.addOut(rec)
			}
			gen := newPropGen(7)
			for step := 0; step < 40; step++ {
				for _, tm := range gen.step() {
					if g.scans[tm.table] == nil {
						continue
					}
					applyLive(t, db, tm.table, tm.mod)
					if err := g.Ingest(tm.table, tm.mod); err != nil {
						t.Fatal(err)
					}
				}
			}
			all := rec.deltas
			products := 0
			for _, d := range all {
				if cap(d.Row) != len(d.Row) || cap(d.Coord) != len(d.Coord) {
					t.Fatalf("delta %v carries a row of capacity %d for %d values, a coordinate of capacity %d for %d",
						d, cap(d.Row), len(d.Row), cap(d.Coord), len(d.Coord))
				}
				if len(d.Coord) > 1 {
					products++
				}
			}
			if products == 0 || len(all) == products {
				t.Fatalf("%d deltas, %d of them join products: the stream exercises neither scans nor probes", len(all), products)
			}
			// Paint every distinct window with its own tag — the n-th row
			// window with the integer n in every value, the n-th coordinate
			// window with n in every entry — then append to each. A write
			// that reached past its window, into another, leaves a delta
			// reading something other than its own window's tag.
			was := make([]Delta, len(all))
			rowTag, coordTag := make(map[window]int), make(map[window]int)
			for i, d := range all {
				was[i] = Delta{Row: slices.Clone(d.Row), W: d.W, Coord: slices.Clone(d.Coord)}
				if w := rowWindow(d.Row); rowTag[w] == 0 {
					rowTag[w] = len(rowTag) + 1
				}
				if w := coordWindow(d.Coord); coordTag[w] == 0 {
					coordTag[w] = len(coordTag) + 1
				}
			}
			for _, d := range all {
				for j := range d.Row {
					d.Row[j] = storage.I(int64(rowTag[rowWindow(d.Row)]))
				}
				for j := range d.Coord {
					d.Coord[j] = uint64(coordTag[coordWindow(d.Coord)])
				}
			}
			for _, d := range all {
				_ = append(d.Row, storage.S("appended"))
				_ = append(d.Coord, math.MaxUint64)
			}
			for i, d := range all {
				rt, ct := storage.I(int64(rowTag[rowWindow(d.Row)])), uint64(coordTag[coordWindow(d.Coord)])
				for _, v := range d.Row {
					if v != rt {
						t.Fatalf("delta %d (%v) shares memory with another row: it reads %v where its own window wrote %v", i, was[i], v, rt)
					}
				}
				for _, c := range d.Coord {
					if c != ct {
						t.Fatalf("delta %d (%v) shares memory with another coordinate: it reads %d where its own window wrote %d", i, was[i], c, ct)
					}
				}
			}
			for i, d := range all {
				copy(d.Row, was[i].Row)
				copy(d.Coord, was[i].Coord)
			}
			t.Logf("%d deltas, %d join products, %d row windows, %d coordinate windows", len(all), products, len(rowTag), len(coordTag))
		})
	}
}

// heapAfterGC is the live heap once a collection has run.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestArenaChunksFreedAfterStall: one sink stops draining stations while
// sales updates and station updates keep arriving, so its log and the
// stations arrangement keep every product of a moved station — and with
// them every arena chunk such a product lies in, the sales deltas'
// chunks included. Once it drains, checkpoints and the graph trims,
// nothing points into those chunks: the arena holds only what is left
// of its current two, and the live heap comes back to within a few
// chunks of what it was before the stall.
func TestArenaChunksFreedAfterStall(t *testing.T) {
	const rowsPerStation, stations, stallSteps = 8, 125, 400
	g := NewGraph(sizedDB(t, rowsPerStation*stations, rowsPerStation))
	handles := subscribeRegional(t, g, 0)
	p, err := ivm.PlanView(propQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	stalled, err := g.Subscribe(p)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	step := func(stall bool) {
		t.Helper()
		updateRound(t, g, 8, rowsPerStation, &next)
		st := next % stations
		liveIngest(t, g, "stations", ivm.Mod{Kind: ivm.ModUpdate, Key: []storage.Value{storage.I(int64(st))},
			Row: storage.Row{storage.I(int64(st)), storage.S([]string{"EAST", "WEST"}[next/stations%2])}})
		settle(t, handles)
		if stall {
			if err := stalled.ProcessBatch("s", stalled.Pending()[0]); err != nil {
				t.Fatal(err)
			}
		} else {
			settle(t, []*ViewHandle{stalled})
		}
		g.Trim()
	}
	for i := 0; i < 64; i++ {
		step(false)
	}
	before := heapAfterGC()
	for i := 0; i < stallSteps; i++ {
		step(true)
	}
	retained := g.Stats().RetainedDeltas
	peak := heapAfterGC()
	// Two steady steps after the drain: a log's capacity follows the peak
	// since its last trim, so the second trim gives the stall's back.
	for i := 0; i < 2; i++ {
		step(false)
	}
	after := heapAfterGC()
	t.Logf("live heap %d B before the stall, %d B after %d stalled steps (%d deltas retained), %d B after the drain",
		before, peak, stallSteps, retained, after)
	if retained < stallSteps*rowsPerStation || peak < before+16*arenaValues*32 {
		t.Fatalf("the stall retained %d deltas and grew the heap from %d to %d B: it pinned too little to test", retained, before, peak)
	}
	if st := g.Stats(); st.RetainedDeltas != 0 {
		t.Fatalf("after the drain the logs retain %d deltas, want none", st.RetainedDeltas)
	}
	if cap(g.arena.vals) > arenaValues || cap(g.arena.words) > arenaWords {
		t.Fatalf("the arena references %d values and %d words, want at most its current chunks (%d, %d)",
			cap(g.arena.vals), cap(g.arena.words), arenaValues, arenaWords)
	}
	// Two value chunks and a word chunk: the arena's current chunks twice
	// over, a sixtieth of what the stall pinned.
	const bound = 2*arenaValues*32 + arenaWords*8
	if after > before+bound {
		t.Fatalf("live heap %d B after the drain, %d B before the stall: %d B more, want at most %d", after, before, after-before, bound)
	}
}
