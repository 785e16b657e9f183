package pubsub

import (
	"testing"

	"abivm/internal/fault"
	"abivm/internal/testenv"
)

// The shared-lock read paths — HealthInto for pollers, backlogCost for
// the sharded barrier's admission control — run on every scrape and
// every barrier, concurrent with the step loop. They are written to be
// allocation-free in steady state (pooled or caller-supplied scratch);
// these tests pin that property so a refactor that quietly reintroduces
// a per-call allocation fails loudly instead of showing up as GC
// pressure under load.

// steppedBroker returns a demo broker advanced through enough faulted
// steps that subscriptions have pending deltas, WAL records, and (for
// some seeds) degradations — so the read paths exercise real state, not
// empty vectors.
func steppedBroker(t testing.TB, seed int64, steps int) *Broker {
	t.Helper()
	w, err := NewDemoWorkload(seed, fault.NewSeeded(seed, fault.DefaultRates()))
	if err != nil {
		t.Fatalf("NewDemoWorkload: %v", err)
	}
	for i := 0; i < steps; i++ {
		if _, err := w.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	return w.Broker
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

func TestBacklogCostAllocFree(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	b := steppedBroker(t, 11, 20)
	// First call populates pendPool with a right-sized scratch vector.
	b.backlogCost()
	allocs := testing.AllocsPerRun(200, func() { b.backlogCost() })
	if allocs != 0 {
		t.Errorf("backlogCost with pooled scratch: %v allocs/op, want 0", allocs)
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

func BenchmarkBacklogCost(b *testing.B) {
	br := steppedBroker(b, 11, 20)
	br.backlogCost()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.backlogCost()
	}
}
