package main

import (
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
)

var skewStream = workloadByName("skew-dim").stream

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	hash := func(seed int64) uint64 {
		_, g, err := newWorld(quickSizing().apply(uniformStream), seed)
		if err != nil {
			t.Fatal(err)
		}
		return streamHash(g.steps(200))
	}
	if a, b := hash(7), hash(7); a != b {
		t.Errorf("same seed gave stream hashes %x and %x", a, b)
	}
	if a, b := hash(7), hash(8); a == b {
		t.Errorf("seeds 7 and 8 gave the same stream hash %x", a)
	}
}

// TestTableSizesStayBounded runs ten times the committed step count and
// requires the sales table within ±1 % of its target after every
// modification, so per-step cost cannot depend on run length.
func TestTableSizesStayBounded(t *testing.T) {
	sz := fullSizing(defaultSeconds)
	steps := 10 * (sz.warmup + sz.timedSteps())
	for _, spec := range []streamSpec{uniformStream, skewStream} {
		g := newGenerator(spec, 3)
		for k := 0; k < spec.Sales; k++ {
			g.live = append(g.live, int64(k))
		}
		g.next = int64(spec.Sales)
		lo, hi := spec.Sales-spec.Sales/100, spec.Sales+spec.Sales/100
		for s := 0; s < steps; s++ {
			g.step()
			if n := len(g.live); n < lo || n > hi {
				t.Fatalf("step %d: %d sales rows, outside [%d, %d]", s, n, lo, hi)
			}
		}
	}
}

// TestEveryModIsValid replays a stream against the tables it was made
// for and against a model of them: no insert over a live key, no delete
// or update of a missing one, updates keep the primary key, and a station
// update always changes the region.
func TestEveryModIsValid(t *testing.T) {
	for _, spec := range []streamSpec{quickSizing().apply(uniformStream), quickSizing().apply(skewStream)} {
		db, g, err := newWorld(spec, 11)
		if err != nil {
			t.Fatal(err)
		}
		live := map[int64]bool{}
		for k := 0; k < spec.Sales; k++ {
			live[int64(k)] = true
		}
		stations := db.MustTable(tblStations)
		for s, evs := range g.steps(400) {
			if len(evs) != modsPerStep {
				t.Fatalf("step %d has %d mods, want %d", s, len(evs), modsPerStep)
			}
			for _, ev := range evs {
				switch {
				case ev.table == tblSales && ev.mod.Kind == ivm.ModInsert:
					k := ev.mod.Row[0].Int()
					if live[k] {
						t.Fatalf("step %d: insert over live sale %d", s, k)
					}
					live[k] = true
				case ev.table == tblSales && ev.mod.Kind == ivm.ModDelete:
					k := ev.mod.Key[0].Int()
					if !live[k] {
						t.Fatalf("step %d: delete of missing sale %d", s, k)
					}
					delete(live, k)
				case ev.mod.Kind == ivm.ModUpdate:
					if !storage.Equal(ev.mod.Key[0], ev.mod.Row[0]) {
						t.Fatalf("step %d: update of %s changes the primary key: %v -> %v", s, ev.table, ev.mod.Key, ev.mod.Row)
					}
					if ev.table == tblSales && !live[ev.mod.Key[0].Int()] {
						t.Fatalf("step %d: update of missing sale %v", s, ev.mod.Key)
					}
					if ev.table == tblStations {
						old, ok := stations.Get(ev.mod.Key...)
						if !ok || storage.Equal(old[1], ev.mod.Row[1]) {
							t.Fatalf("step %d: station update %v does not change the region of %v", s, ev.mod.Row, old)
						}
					}
				default:
					t.Fatalf("step %d: unexpected %s on %s", s, ev.mod.Kind, ev.table)
				}
				if err := applyEvent(db, ev); err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
			}
		}
		if got := db.MustTable(tblSales).Len(); got != len(live) {
			t.Errorf("sales table has %d rows, model %d", got, len(live))
		}
	}
}

// topShare is the share of sales rows on the busiest 1 % of stations.
func topShare(t *testing.T, db *storage.DB, stations int) float64 {
	t.Helper()
	perStation := make([]int, stations)
	total := 0
	db.MustTable(tblSales).Scan(func(r storage.Row) bool {
		perStation[r[1].Int()]++
		total++
		return true
	})
	top := (stations + 99) / 100
	sum := 0
	for ; top > 0; top-- {
		best := 0
		for i := range perStation {
			if perStation[i] > perStation[best] {
				best = i
			}
		}
		sum += perStation[best]
		perStation[best] = -1
	}
	return float64(sum) / float64(total)
}

// TestZipfTopStationShare pins the skew: with Zipf(1.1) over 100
// stations the heaviest one holds 1/H(100; 1.1) ≈ 23 % of the sales rows,
// before and after the stream has churned the table; uniform keys give
// about 1 %.
func TestZipfTopStationShare(t *testing.T) {
	db, g, err := newWorld(skewStream, 5)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		if s := topShare(t, db, skewStream.Stations); s < 0.18 || s > 0.29 {
			t.Errorf("%s: top-1%% station share %.3f, want about 0.23", when, s)
		}
	}
	check("initial table")
	for _, evs := range g.steps(1000) {
		for _, ev := range evs {
			if err := applyEvent(db, ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("after 1000 steps")

	udb, _, err := newWorld(uniformStream, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s := topShare(t, udb, uniformStream.Stations); s > 0.03 {
		t.Errorf("uniform keys: top-1%% station share %.3f, want about 0.01", s)
	}
}
