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
// TestCostAsymmetryIndexedVsUnindexed. The numbers were taken before the
// hash join learned to key its table on the smaller input: how the
// executor organises a join must not move the cost model (f_i, C and
// every policy decision are fitted to these units). HashBuildRows is two
// scans of the 4,000-row partsupp replica, one for the minus set and one
// for the plus set.
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
		RowsScanned:   8034,
		IndexProbes:   103,
		IndexEntries:  86,
		RowsInserted:  17,
		RowsDeleted:   17,
		IndexWrites:   34,
		HashBuildRows: 8000,
		HashProbeRows: 7,
		RowsEmitted:   1188,
		AggUpdates:    560,
		BatchSetups:   3,
		RowsMaterial:  560,
	}
	if got := m.Stats().Sub(before); got != want {
		t.Errorf("20-modification S drain charged\n %+v, want\n %+v", got, want)
	}
}

// TestDimensionDrainAllocsIndependentOfFactRows: draining a dimension
// update against an unindexed fact replica scans it without allocating —
// ten times the fact rows, same matches, same allocation count.
func TestDimensionDrainAllocsIndependentOfFactRows(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	const view = `SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey`
	allocs := func(sales int) float64 {
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
			if err := stations.Insert(storage.Row{storage.I(int64(i)), storage.S("r0")}); err != nil {
				t.Fatal(err)
			}
		}
		if err := stations.CreateIndex("st_pk", storage.HashIndex, "stationkey"); err != nil {
			t.Fatal(err)
		}
		fact := mk("sales", []storage.Column{{Name: "salekey", Type: storage.TInt}, {Name: "station", Type: storage.TInt}}, "salekey")
		for i := 0; i < sales; i++ {
			// Thirty sales at station 0, the one the drains update; the
			// rest spread over the other nine.
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
