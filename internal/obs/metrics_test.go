package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abivm/internal/testenv"
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
	r.Collect(r, func(c *Collector) { c.Gauge("depth", 2.5) })
	snaps := r.Snapshot()
	if len(snaps) != 2 || snaps[0].Key() != "depth" || snaps[0].Type != "gauge" || snaps[0].Value != 2.5 {
		t.Fatalf("snapshot = %+v, want depth first, a gauge at 2.5", snaps)
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
	mustPanic("kind conflict", func() { r.Histogram("taken", []float64{1}) })
	mustPanic("empty bounds", func() { r.Histogram("hist", nil) })
	mustPanic("unsorted bounds", func() { r.Histogram("hist2", []float64{2, 1}) })
}

// level returns the value of the series under key in one snapshot of r,
// failing t when it is missing or not of type typ.
func level(t *testing.T, r *Registry, key, typ string) float64 {
	t.Helper()
	for _, m := range r.Snapshot() {
		if m.Key() == key {
			if m.Type != typ {
				t.Fatalf("%s is a %s, want a %s", key, m.Type, typ)
			}
			return m.Value
		}
	}
	t.Fatalf("%s not in the snapshot", key)
	return 0
}

// TestCollectReadsAtSnapshot: a collect function's series are what it
// reports when the snapshot is taken; a later Collect from the same
// owner replaces the function and a nil one removes it; equal keys that
// two owners report are summed; and a function may register metrics
// itself — it runs outside the registry's lock — but a key reported as
// two kinds panics.
func TestCollectReadsAtSnapshot(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	east, west := new(int), new(int)
	r.Collect(east, func(c *Collector) {
		c.Gauge("depth", v, "sub", "east")
		c.Counter("moved_total", 2)
	})
	if got := level(t, r, `depth{sub="east"}`, "gauge"); got != 1 {
		t.Fatalf("depth = %g, want 1", got)
	}
	v = 7
	if got := level(t, r, `depth{sub="east"}`, "gauge"); got != 7 {
		t.Fatalf("depth = %g after the state moved to 7", got)
	}
	r.Collect(west, func(c *Collector) { c.Counter("moved_total", 3) })
	if got := level(t, r, "moved_total", "counter"); got != 5 {
		t.Fatalf("moved_total = %g over two owners reporting 2 and 3, want 5", got)
	}
	r.Collect(east, func(c *Collector) { c.Gauge("depth", -v, "sub", "east") })
	if got := level(t, r, `depth{sub="east"}`, "gauge"); got != -7 {
		t.Fatalf("depth = %g after east's function was replaced, want -7", got)
	}
	if got := level(t, r, "moved_total", "counter"); got != 3 {
		t.Fatalf("moved_total = %g after east stopped reporting it, want 3", got)
	}
	r.Collect(west, nil)
	if n := len(r.Snapshot()); n != 1 {
		t.Fatalf("%d series after west's function was removed, want 1", n)
	}
	r.Collect(east, func(c *Collector) {
		r.Counter("registered_in_snapshot_total").Inc()
		c.Gauge("depth", 3)
	})
	done := make(chan []MetricSnapshot)
	go func() { done <- r.Snapshot() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a collect function that registers a metric deadlocked the snapshot")
	}
	if got := r.Counter("registered_in_snapshot_total").Value(); got != 1 {
		t.Fatalf("the function ran %d times in one snapshot, want 1", got)
	}
	var nilReg *Registry
	nilReg.Collect(east, func(c *Collector) { c.Gauge("depth", 1) }) // no-op
	r.Collect(east, func(c *Collector) { c.Gauge("depth", 3) })
	r.Collect(west, func(c *Collector) { c.Counter("registered_in_snapshot_total", 1) })
	if got := level(t, r, "registered_in_snapshot_total", "counter"); got != 2 {
		t.Fatalf("a registered counter at 1 and a reported one at 1 read %g, want 2", got)
	}
	r.Collect(west, func(c *Collector) { c.Counter("depth", 1) })
	defer func() {
		if recover() == nil {
			t.Fatal("a key reported as a gauge and a counter did not panic")
		}
	}()
	r.Snapshot()
}

// TestSnapshotAllocsPerSeries: one snapshot's allocations grow linearly
// with its series — a fixed number per registered counter and per
// reported gauge, whatever their count — so a scrape of a large
// population costs what its series do, not a factor log n more for
// rebuilding keys while it sorts them.
func TestSnapshotAllocsPerSeries(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	perSeries := func(n int) float64 {
		r := NewRegistry()
		subs := make([]string, n/2)
		for i := range subs {
			subs[i] = fmt.Sprintf("s%d", i)
			r.Counter("notes_total", "sub", subs[i]).Inc()
		}
		r.Collect(r, func(c *Collector) {
			for i, s := range subs {
				c.Gauge("depth", float64(i), "sub", s)
			}
		})
		return testing.AllocsPerRun(3, func() { r.Snapshot() }) / float64(n)
	}
	small, large := perSeries(100), perSeries(10_000)
	if math.Abs(large-small) > 0.1*small {
		t.Fatalf("a snapshot made %.2f allocations per series at 100 series, %.2f at 10,000: want within 10%%", small, large)
	}
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
	h := r.Histogram("z", []float64{1})
	c.Inc()
	c.Add(3)
	h.Observe(4)
	r.Collect(r, func(c *Collector) { c.Gauge("y", 1) })
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil-registry instruments must read as zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

// TestConcurrentUpdates hammers one registry from many goroutines, each
// also (re)registering a collect function over its own progress; run
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
			h := r.Histogram("obs_hist", []float64{0.5, 1})
			var done atomic.Int64
			for i := 0; i < per; i++ {
				c.Inc()
				done.Add(1)
				h.Observe(float64(i%2) + 0.25)
				if i%500 == 0 {
					r.Collect(&done, func(c *Collector) { c.Gauge("level", float64(done.Load())) })
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("ops_total").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := level(t, r, "level", "gauge"); got != workers*per {
		t.Fatalf("gauge sum = %g, want %d", got, workers*per)
	}
	if got := r.Histogram("obs_hist", []float64{0.5, 1}).Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestWriteMetricsText(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "sub", "east").Add(3)
	r.Collect(r, func(c *Collector) {
		c.Gauge("level", 1.5)
		c.Counter("moved_total", 2)
	})
	r.Histogram("lat_seconds", []float64{0.1, 1}).Observe(0.05)
	var b strings.Builder
	WriteMetricsText(&b, r)
	out := b.String()
	for _, want := range []string{
		"# TYPE reqs_total counter",
		`reqs_total{sub="east"} 3`,
		"# TYPE level gauge",
		"level 1.5",
		"# TYPE moved_total counter",
		"moved_total 2",
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

// TestWriteMetricsTextEscapesLabelValues: a label value's backslash,
// double quote and newline are written as \\, \" and \n, as the text
// format requires, so no subscription name can end a sample's label set
// or line early and make a scraper reject the page.
func TestWriteMetricsTextEscapesLabelValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("notes_total", "sub", "east\"1").Inc()
	r.Collect(r, func(c *Collector) { c.Gauge("degraded", 1, "sub", "a\\b\nc") })
	var b strings.Builder
	WriteMetricsText(&b, r)
	want := "# TYPE degraded gauge\n" +
		`degraded{sub="a\\b\nc"} 1` + "\n" +
		"# TYPE notes_total counter\n" +
		`notes_total{sub="east\"1"} 1` + "\n"
	if got := b.String(); got != want {
		t.Fatalf("text exposition:\n%s\nwant:\n%s", got, want)
	}
}
