package dataflow

import (
	"fmt"
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// sizedDB builds a stations/sales database of nSales rows with
// rowsPerStation sales per station, so join buckets keep one size while
// the tables grow. Stations alternate between two regions.
func sizedDB(tb testing.TB, nSales, rowsPerStation int) *storage.DB {
	tb.Helper()
	return regionalDB(tb, nSales, rowsPerStation, []string{"EAST", "WEST"})
}

// regionName is the i-th region of a regionalDB spread over many.
func regionName(i int) string { return fmt.Sprintf("R%02d", i) }

// regionNames returns the first n region names.
func regionNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = regionName(i)
	}
	return names
}

// regionalQuery is the regional-filter view template: its filter is its
// join's rwhere over stations, so views of different regions build
// different joins over the same two arrangements.
func regionalQuery(region string) string {
	return fmt.Sprintf("SELECT SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region = '%s'", region)
}

// regionalDB is sizedDB with station i in regions[i % len(regions)].
func regionalDB(tb testing.TB, nSales, rowsPerStation int, regions []string) *storage.DB {
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
	for i := 0; i < nStations; i++ {
		if err := stations.Insert(storage.Row{storage.I(int64(i)), storage.S(regions[i%len(regions)])}); err != nil {
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

// subscribeRegional subscribes the unfiltered trimBenchQuery view and
// then one regional-filter view for each of the first regional regions:
// 1+regional joins, all reading scan(sales) by sales.station.
func subscribeRegional(tb testing.TB, g *Graph, regional int) []*ViewHandle {
	tb.Helper()
	queries := []string{trimBenchQuery}
	for r := 0; r < regional; r++ {
		queries = append(queries, regionalQuery(regionName(r)))
	}
	handles := make([]*ViewHandle, len(queries))
	for i, q := range queries {
		p, err := ivm.PlanView(q)
		if err != nil {
			tb.Fatal(err)
		}
		if handles[i], err = g.Subscribe(p); err != nil {
			tb.Fatal(err)
		}
	}
	return handles
}

// settle refreshes and checkpoints every view, bringing the GC watermark
// up to everything ingested.
func settle(tb testing.TB, handles []*ViewHandle) {
	tb.Helper()
	for _, h := range handles {
		if err := h.Refresh(); err != nil {
			tb.Fatal(err)
		}
		if err := h.Checkpoint(); err != nil {
			tb.Fatal(err)
		}
	}
}

// updateRound ingests n in-place amount updates over the first 1,000
// sales, continuing the key sequence at *next: the same stream at every
// size, state size constant over the run.
func updateRound(tb testing.TB, g *Graph, n, rowsPerStation int, next *int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		key := int64(*next % 1000)
		*next++
		if err := g.Ingest("sales", updateSale(key, rowsPerStation, float64(*next%97+1))); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkDataflowTrim measures one checkpoint-cadence GC of the join
// state after a fixed 128 modifications, over sales inputs of 1k, 10k and
// 100k rows read by 1 join or by 13 (the unfiltered view plus twelve
// regional-filter views). ns/op is flat across sizes when a trim costs
// O(modifications since the last trim) rather than O(table), and flat
// across joins when the shared input is arranged once rather than once
// per join.
func BenchmarkDataflowTrim(b *testing.B) {
	const modsPerTrim, rowsPerStation, regions = 128, 20, 12
	for _, n := range []int{1_000, 10_000, 100_000} {
		for _, joins := range []int{1, 1 + regions} {
			b.Run(fmt.Sprintf("rows=%d/joins=%d", n, joins), func(b *testing.B) {
				g := NewGraph(regionalDB(b, n, rowsPerStation, regionNames(regions)))
				handles := subscribeRegional(b, g, joins-1)
				next := 0
				round := func() {
					updateRound(b, g, modsPerTrim, rowsPerStation, &next)
					settle(b, handles)
				}
				round()
				g.Trim()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					round()
					b.StartTimer()
					g.Trim()
				}
			})
		}
	}
}
