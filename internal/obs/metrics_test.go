package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth")
	g.Set(2.5)
	g.Add(0.5)
	if got := g.Value(); got != 3.0 {
		t.Fatalf("gauge = %g, want 3", got)
	}
}

func TestRegistryIdempotentAndLabeled(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "sub", "east")
	b := r.Counter("hits_total", "sub", "east")
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	other := r.Counter("hits_total", "sub", "west")
	if a == other {
		t.Fatal("different label values must return different counters")
	}
	a.Inc()
	snaps := r.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("snapshot has %d metrics, want 2", len(snaps))
	}
	// Sorted by canonical key: east before west.
	if snaps[0].Key() != `hits_total{sub="east"}` || snaps[0].Value != 1 {
		t.Fatalf("first snapshot = %s value %g", snaps[0].Key(), snaps[0].Value)
	}
}

func TestRegistryPanicsAreAttachTime(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("invalid name", func() { r.Counter("Bad-Name") })
	mustPanic("odd labels", func() { r.Counter("ok_name", "k") })
	r.Counter("taken")
	mustPanic("kind conflict", func() { r.Gauge("taken") })
	mustPanic("empty bounds", func() { r.Histogram("hist", nil) })
	mustPanic("unsorted bounds", func() { r.Histogram("hist2", []float64{2, 1}) })
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 99, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got := h.Sum(); got != 1115.5 {
		t.Fatalf("sum = %g, want 1115.5", got)
	}
	snap := r.Snapshot()[0]
	wantCum := []int64{2, 4, 5, 6} // le=1:{0.5,1}, le=10:+{5,10}, le=100:+{99}, +Inf:+{1000}
	if len(snap.Buckets) != len(wantCum) {
		t.Fatalf("buckets = %d, want %d", len(snap.Buckets), len(wantCum))
	}
	for i, b := range snap.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d cumulative = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(snap.Buckets[3].UpperBound, 1) {
		t.Fatalf("last bucket bound = %g, want +Inf", snap.Buckets[3].UpperBound)
	}
	// Re-registration returns the same histogram, keeping the first bounds.
	if r.Histogram("lat", []float64{5}) != h {
		t.Fatal("re-registration must return the existing histogram")
	}
}

func TestNilSinksNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []float64{1})
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(4)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil-registry instruments must read as zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

// TestConcurrentUpdates hammers one registry from many goroutines; run
// under -race this is the package's race-cleanliness proof.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("ops_total")
			g := r.Gauge("level")
			h := r.Histogram("obs_hist", []float64{0.5, 1})
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%2) + 0.25)
				if i%500 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops_total").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("level").Value(); got != workers*per {
		t.Fatalf("gauge sum = %g, want %d", got, workers*per)
	}
	if got := r.Histogram("obs_hist", []float64{0.5, 1}).Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestWriteMetricsText(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "sub", "east").Add(3)
	r.Gauge("level").Set(1.5)
	r.Histogram("lat_seconds", []float64{0.1, 1}).Observe(0.05)
	var b strings.Builder
	WriteMetricsText(&b, r)
	out := b.String()
	for _, want := range []string{
		"# TYPE reqs_total counter",
		`reqs_total{sub="east"} 3`,
		"# TYPE level gauge",
		"level 1.5",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="+Inf"} 1`,
		"lat_seconds_sum 0.05",
		"lat_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text exposition missing %q in:\n%s", want, out)
		}
	}
}
