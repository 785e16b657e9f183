package dataflow

import (
	"fmt"
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// sizedDB builds a stations/sales database of nSales rows with
// rowsPerStation sales per station, so join buckets keep one size while
// the tables grow.
func sizedDB(tb testing.TB, nSales, rowsPerStation int) *storage.DB {
	tb.Helper()
	db := storage.NewDB()
	st, err := storage.NewSchema("stations", []storage.Column{
		{Name: "stationkey", Type: storage.TInt},
		{Name: "region", Type: storage.TString},
	}, "stationkey")
	if err != nil {
		tb.Fatal(err)
	}
	stations, err := db.CreateTable(st)
	if err != nil {
		tb.Fatal(err)
	}
	nStations := (nSales + rowsPerStation - 1) / rowsPerStation
	regions := []string{"EAST", "WEST"}
	for i := 0; i < nStations; i++ {
		if err := stations.Insert(storage.Row{storage.I(int64(i)), storage.S(regions[i%2])}); err != nil {
			tb.Fatal(err)
		}
	}
	sa, err := storage.NewSchema("sales", []storage.Column{
		{Name: "salekey", Type: storage.TInt},
		{Name: "station", Type: storage.TInt},
		{Name: "amount", Type: storage.TFloat},
	}, "salekey")
	if err != nil {
		tb.Fatal(err)
	}
	sales, err := db.CreateTable(sa)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < nSales; i++ {
		if err := sales.Insert(storage.Row{storage.I(int64(i)), storage.I(int64(i / rowsPerStation)), storage.F(float64(1 + i%9))}); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

const trimBenchQuery = "SELECT st.region, SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region"

// BenchmarkDataflowTrim measures one checkpoint-cadence GC of the join
// state after a fixed 128 modifications, over join states of 1k, 10k
// and 100k rows. ns/op is flat across sizes when a trim costs
// O(modifications since the last trim) rather than O(table).
func BenchmarkDataflowTrim(b *testing.B) {
	const modsPerTrim, rowsPerStation = 128, 20
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			db := sizedDB(b, n, rowsPerStation)
			g := NewGraph(db)
			p, err := ivm.PlanView(trimBenchQuery)
			if err != nil {
				b.Fatal(err)
			}
			h, err := g.Subscribe(p)
			if err != nil {
				b.Fatal(err)
			}
			// In-place amount updates over the first 1,000 sales: the same
			// stream at every size, state size constant over the run.
			next := 0
			round := func() {
				for i := 0; i < modsPerTrim; i++ {
					key := int64(next % 1000)
					next++
					mod := ivm.Mod{
						Kind: ivm.ModUpdate,
						Key:  []storage.Value{storage.I(key)},
						Row:  storage.Row{storage.I(key), storage.I(key / rowsPerStation), storage.F(float64(next%97 + 1))},
					}
					if err := g.Ingest("sales", mod); err != nil {
						b.Fatal(err)
					}
				}
				if err := h.Refresh(); err != nil {
					b.Fatal(err)
				}
				if err := h.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			round()
			g.Trim(h.DurableCursors())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				round()
				b.StartTimer()
				g.Trim(h.DurableCursors())
			}
		})
	}
}
