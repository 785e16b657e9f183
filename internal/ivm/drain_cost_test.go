package ivm_test

// Tests of what a drain costs, in the model's units and in allocations.
// They sit in the external test package because they use the tpcr
// generator, which itself imports ivm.

import (
	"fmt"
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
	"abivm/internal/testenv"
	"abivm/internal/tpcr"
)

// TestUnindexedDrainStatsPinned pins, unit by unit, what one
// 20-modification Supplier drain of the paper's view charges when
// partsupp.suppkey has no index — the expensive side of
// TestCostAsymmetryIndexedVsUnindexed. f_i, C and every policy decision
// are fitted to these units, so a change that moves any of them has to
// regenerate RESULTS.txt with it (make results-check). The drain carries
// its minus and plus rows through the delta query together: HashBuildRows
// is one scan of the 4,000-row partsupp replica, and BatchSetups is that
// scan's plus the drain's own.
func TestUnindexedDrainStatsPinned(t *testing.T) {
	cfg := tpcr.DefaultConfig()
	db := storage.NewDB()
	if err := tpcr.Generate(db, cfg); err != nil {
		t.Fatal(err)
	}
	m, err := ivm.New(db, tpcr.PaperView)
	if err != nil {
		t.Fatal(err)
	}
	gen := tpcr.NewUpdateGen(db, cfg, 3)
	for i := 0; i < 20; i++ {
		if err := m.Apply(gen.SupplierUpdate()); err != nil {
			t.Fatal(err)
		}
	}
	before := *m.Stats()
	if err := m.ProcessBatch("S", 20); err != nil {
		t.Fatal(err)
	}
	want := storage.Stats{
		RowsScanned:   4034,
		IndexProbes:   103,
		IndexEntries:  86,
		RowsInserted:  17,
		RowsDeleted:   17,
		IndexWrites:   34,
		HashBuildRows: 4000,
		HashProbeRows: 7,
		RowsEmitted:   1188,
		AggUpdates:    560,
		BatchSetups:   2,
		RowsMaterial:  560,
	}
	if got := m.Stats().Sub(before); got != want {
		t.Errorf("20-modification S drain charged\n %+v, want\n %+v", got, want)
	}
}

// dimFixture builds ten stations (even keys in region r0, odd in r1) and
// an unindexed sales table — thirty sales at station 0, the rest spread
// over the other nine — and a maintainer for view over them.
func dimFixture(t *testing.T, sales int, view string) *ivm.Maintainer {
	t.Helper()
	db := storage.NewDB()
	mk := func(name string, cols []storage.Column, key string) *storage.Table {
		schema, err := storage.NewSchema(name, cols, key)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable(schema)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	stations := mk("stations", []storage.Column{{Name: "stationkey", Type: storage.TInt}, {Name: "region", Type: storage.TString}}, "stationkey")
	for i := 0; i < 10; i++ {
		if err := stations.Insert(storage.Row{storage.I(int64(i)), storage.S(fmt.Sprint("r", i%2))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := stations.CreateIndex("st_pk", storage.HashIndex, "stationkey"); err != nil {
		t.Fatal(err)
	}
	fact := mk("sales", []storage.Column{{Name: "salekey", Type: storage.TInt}, {Name: "station", Type: storage.TInt}}, "salekey")
	for i := 0; i < sales; i++ {
		st := int64(0)
		if i >= 30 {
			st = int64(1 + i%9)
		}
		if err := fact.Insert(storage.Row{storage.I(int64(i)), storage.I(st)}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := ivm.New(db, view)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDimensionDrainScansReplicaOncePerSurvivingBatch is the exact count
// behind the drain's fixed cost: a dimension drain against an unindexed
// fact replica charges one HashBuildRows per replica row, once, when any
// row of its batch survives the view's filter — whether retractions,
// insertions or both do — and nothing when none does.
func TestDimensionDrainScansReplicaOncePerSurvivingBatch(t *testing.T) {
	const sales = 1000
	m := dimFixture(t, sales, `SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region = 'r0'`)
	move := func(station int64, region string) ivm.Mod {
		return ivm.Update("st", []storage.Value{storage.I(station)}, storage.Row{storage.I(station), storage.S(region)})
	}
	for _, tc := range []struct {
		name                       string
		batch                      []ivm.Mod
		scanned, buildRows, setups uint64
	}{
		// BatchSetups counts the drain itself and each scan; RowsScanned the
		// batch's net rows and each replica row read.
		{"only the retraction survives", []ivm.Mod{move(0, "r1")}, 2 + sales, sales, 2},
		{"only the insertion survives", []ivm.Mod{move(0, "r0")}, 2 + sales, sales, 2},
		{"both survive", []ivm.Mod{move(0, "r1"), move(1, "r0")}, 4 + sales, sales, 2},
		{"nothing survives", []ivm.Mod{move(3, "r2")}, 2, 0, 1},
		{"nets to nothing", []ivm.Mod{move(5, "r0"), move(5, "r1")}, 0, 0, 1},
	} {
		if err := m.Apply(tc.batch...); err != nil {
			t.Fatal(err)
		}
		before := *m.Stats()
		if err := m.ProcessBatch("st", len(tc.batch)); err != nil {
			t.Fatal(err)
		}
		got := m.Stats().Sub(before)
		if got.RowsScanned != tc.scanned || got.HashBuildRows != tc.buildRows || got.BatchSetups != tc.setups {
			t.Errorf("%s: RowsScanned %d, HashBuildRows %d, BatchSetups %d; want %d, %d, %d",
				tc.name, got.RowsScanned, got.HashBuildRows, got.BatchSetups, tc.scanned, tc.buildRows, tc.setups)
		}
	}
}

// TestDimensionDrainAllocsIndependentOfFactRows: draining a dimension
// update against an unindexed fact replica scans it without allocating —
// ten times the fact rows, same matches, same allocation count.
func TestDimensionDrainAllocsIndependentOfFactRows(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	allocs := func(sales int) float64 {
		m := dimFixture(t, sales, `SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey`)
		n := 0
		drain := func() {
			n++
			if err := m.Apply(ivm.Update("st", []storage.Value{storage.I(0)}, storage.Row{storage.I(0), storage.S(fmt.Sprint("r", n%2))})); err != nil {
				t.Fatal(err)
			}
			if err := m.ProcessBatch("st", 1); err != nil {
				t.Fatal(err)
			}
		}
		drain() // prepares the alias's delta plan
		return testing.AllocsPerRun(20, drain)
	}
	small, large := allocs(1000), allocs(10000)
	t.Logf("allocs per dimension drain: %.0f over 1,000 fact rows, %.0f over 10,000", small, large)
	if small != large {
		t.Errorf("allocations grew with the fact replica: %.0f at 1,000 rows, %.0f at 10,000", small, large)
	}
}
