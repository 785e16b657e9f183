package pubsub

import (
	"testing"

	"abivm/internal/obs"
)

// subscribePopulation builds the demo broker over ScaledWorkloadSpec(n)
// on the shared graph, with its n region views subscribed: n regions of
// four stations and twenty sales each, one aggregate view per region.
func subscribePopulation(tb testing.TB, n int) *Broker {
	tb.Helper()
	b, err := NewRuntime(RuntimeConfig{Spec: ScaledWorkloadSpec(n), Shared: true})
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestSubscribeVisitsIndependentOfPopulation: a region view's first
// content costs its own region, not the population. Each view joins sales
// to stations under a region literal, so its rebuild visits the entries
// of its region's four stations — the stations arrangement's literal
// index lists them — and reads their sales through the summaries, at
// 100 views as at 1,000.
func TestSubscribeVisitsIndependentOfPopulation(t *testing.T) {
	perView := func(n int) uint64 {
		st := subscribePopulation(t, n).DataflowStats()
		if st.Views != n || st.RebuildVisits%uint64(n) != 0 {
			t.Fatalf("%d views made %d rebuild visits, not a whole number per view", st.Views, st.RebuildVisits)
		}
		return st.RebuildVisits / uint64(n)
	}
	small, large := perView(100), perView(1000)
	if small != 4 || large != small {
		t.Fatalf("a subscription visited %d entries among 100 views, %d among 1,000; want 4 each", small, large)
	}
}

// populationSink keeps BenchmarkSubscribePopulation's result reachable.
var populationSink *Broker

// BenchmarkSubscribePopulation times the set-up of 2,000 region views of
// ScaledWorkloadSpec(2000) on the shared graph: the demo database, the
// broker and every Subscribe.
func BenchmarkSubscribePopulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		populationSink = subscribePopulation(b, 2000)
	}
}

// scrapeSink keeps BenchmarkScrapePopulation's result reachable.
var scrapeSink []obs.MetricSnapshot

// BenchmarkScrapePopulation times one registry snapshot — what a
// /metrics scrape reads — of the 2,000 region views of
// ScaledWorkloadSpec(2000) on the shared graph, with the registry
// attached after they subscribed.
func BenchmarkScrapePopulation(b *testing.B) {
	br := subscribePopulation(b, 2000)
	reg := obs.NewRegistry()
	br.SetObs(reg, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scrapeSink = reg.Snapshot()
	}
}
