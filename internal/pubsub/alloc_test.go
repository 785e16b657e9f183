package pubsub

import (
	"fmt"
	"runtime"
	"testing"

	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/storage"
	"abivm/internal/testenv"
)

// The shared-lock read path HealthInto runs on every scrape, concurrent
// with the step loop. It is written to be allocation-free in steady state
// (caller-supplied scratch); this test pins that property so a refactor
// that quietly reintroduces a per-call allocation fails loudly instead of
// showing up as GC pressure under load.

// steppedBroker returns a demo broker advanced through enough faulted
// steps that subscriptions have pending deltas, WAL records, and (for
// some seeds) degradations — so the read path exercises real state, not
// empty vectors.
func steppedBroker(t testing.TB, seed int64, steps int) *Broker {
	t.Helper()
	w, err := NewDemoWorkload(RuntimeConfig{Seed: seed, Spec: DefaultWorkloadSpec(),
		Injectors: SeededShardInjectors(seed, fault.DefaultRates())})
	if err != nil {
		t.Fatalf("NewDemoWorkload: %v", err)
	}
	for i := 0; i < steps; i++ {
		if _, err := w.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	return w.Broker.(*Broker)
}

func TestHealthIntoAllocFree(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	b := steppedBroker(t, 11, 20)
	var h Health
	// First call sizes h.Pending; steady state starts at the second.
	if err := b.HealthInto("east", &h); err != nil {
		t.Fatalf("HealthInto warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := b.HealthInto("east", &h); err != nil {
			t.Fatalf("HealthInto: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("HealthInto with reused scratch: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkHealthInto(b *testing.B) {
	br := steppedBroker(b, 11, 20)
	var h Health
	if err := br.HealthInto("east", &h); err != nil {
		b.Fatalf("HealthInto warm-up: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.HealthInto("east", &h); err != nil {
			b.Fatalf("HealthInto: %v", err)
		}
	}
}

// publishAllocsPerSub measures what routing one modification costs per
// watching subscription: the allocation count of a batch of sales
// inserts published to a broker with n overlapping views, minus the same
// batch on a one-view broker (the live-table change and the graph's
// shared work cancel out), per modification and extra subscription.
func publishAllocsPerSub(t *testing.T, shared bool, n int) float64 {
	const batch = 512
	run := func(views int) float64 {
		db, err := chaosDB()
		if err != nil {
			t.Fatal(err)
		}
		b := NewBroker(db)
		if shared {
			if err := b.SetSharedDataflow(true); err != nil {
				t.Fatal(err)
			}
		}
		subscribeSharedViews(t, b, views)
		next := int64(1000)
		return testing.AllocsPerRun(1, func() {
			for i := 0; i < batch; i++ {
				row := storage.Row{storage.I(next), storage.I(next % 8), storage.F(1)}
				next++
				if err := b.Publish("sales", ivm.Insert("", row)); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	return (run(n) - run(1)) / float64(batch*(n-1))
}

// TestPublishRoutingAllocs pins the ingest hot path on both engines:
// handing a modification to one more subscription costs no allocation
// beyond the amortized growth of that subscription's queue and redo log
// (a few dozen doublings over the batch — far below one per
// modification). An arrival method that allocates per call — a variadic
// parameter behind the viewEngine interface does — lands at one or more
// and fails here, before it shows up as +24 allocs/mod on a 24-view
// workload.
func TestPublishRoutingAllocs(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	for _, mode := range []struct {
		name   string
		shared bool
	}{{"classic", false}, {"shared", true}} {
		if got := publishAllocsPerSub(t, mode.shared, 24); got >= 0.5 {
			t.Errorf("%s: routing one modification costs %.2f allocations per subscription, want amortized growth only (< 0.5)", mode.name, got)
		} else {
			t.Logf("%s: %.3f allocations per modification per subscription", mode.name, got)
		}
	}
}

// endStepAllocs counts what one EndStep allocates on a broker with n
// overlapping views whose conditions never fire and whose bound no
// backlog reaches: a step in which no subscription drains or notifies.
// Each measured step follows the publish of one sale, so every policy
// sees arrivals and a non-empty state.
func endStepAllocs(t *testing.T, shared bool, n int) uint64 {
	t.Helper()
	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(db)
	b.SetCheckpointEvery(0)
	if shared {
		if err := b.SetSharedDataflow(true); err != nil {
			t.Fatal(err)
		}
	}
	model, err := chaosModel()
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range sharedViewQueries(n) {
		if err := b.Subscribe(Subscription{
			Name: fmt.Sprintf("v%d", i), Query: q, Model: model, QoS: 1e9,
			Condition: func(int) bool { return false },
		}); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var allocs uint64
	for step := int64(0); step < 4; step++ {
		row := storage.Row{storage.I(1000 + step), storage.I(step % 8), storage.F(1)}
		if err := b.Publish("sales", ivm.Insert("", row)); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		notes, err := b.EndStep()
		runtime.ReadMemStats(&after)
		if err != nil || len(notes) != 0 {
			t.Fatalf("step %d: %d notifications, err %v; want a quiet step", step, len(notes), err)
		}
		allocs = after.Mallocs - before.Mallocs
	}
	for _, s := range b.subs {
		if s.total != 0 {
			t.Fatalf("%s drained (cost %g); want a step without drains", s.cfg.Name, s.total)
		}
	}
	return allocs
}

// TestEndStepAllocsPerIdleSubscription pins the step loop's cost per
// subscription that neither drains nor notifies: at most one allocation,
// the zero action its policy returns. The broker hands the policy its
// live arrival counter and pending scratch instead of copies of them, and
// the policy keeps its own scratch across calls.
func TestEndStepAllocsPerIdleSubscription(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	const few, many = 1, 9
	for _, mode := range []struct {
		name   string
		shared bool
	}{{"classic", false}, {"shared", true}} {
		lo, hi := endStepAllocs(t, mode.shared, few), endStepAllocs(t, mode.shared, many)
		if per := float64(hi-lo) / (many - few); per > 1 {
			t.Errorf("%s: a quiet step allocates %d times with %d subscriptions, %d with %d: %.2f per subscription, want at most 1",
				mode.name, lo, few, hi, many, per)
		}
	}
}
