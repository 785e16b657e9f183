package pubsub

import (
	"sync"
	"testing"

	"abivm/internal/fault"
	"abivm/internal/obs"
)

// TestShardedAccessorsConcurrentWithWorkload: while the sharded workload
// publishes and steps (its shards stepping in parallel inside EndStep),
// another goroutine hammers every read surface — TotalCost, Health (which
// routes the owning shard's buffer), Result, Subscriptions, ShardStats,
// and the metrics endpoint's registry. Run under -race this proves the
// mid-run comparison path is properly synchronized.
func TestShardedAccessorsConcurrentWithWorkload(t *testing.T) {
	const seed, shards, steps = 13, 4, 60
	w, err := NewDemoWorkload(RuntimeConfig{Seed: seed, Shards: shards, Spec: ScaledWorkloadSpec(2 * shards),
		Injectors: SeededShardInjectors(seed, fault.DefaultRates())})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sb := w.Broker.(*ShardedBroker)
	reg := obs.NewRegistry()
	tr := obs.NewTracer(obs.DefaultTraceCapacity)
	w.Broker.SetObs(reg, tr)

	names := w.Broker.Subscriptions()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, name := range names {
				if _, err := w.Broker.TotalCost(name); err != nil {
					t.Errorf("TotalCost(%s): %v", name, err)
					return
				}
				if _, err := w.Broker.Health(name); err != nil {
					t.Errorf("Health(%s): %v", name, err)
					return
				}
				if _, err := w.Broker.Result(name); err != nil {
					t.Errorf("Result(%s): %v", name, err)
					return
				}
			}
			w.Broker.Subscriptions()
			sb.ShardStats()
			reg.Snapshot()
		}
	}()
	for i := 0; i < steps; i++ {
		if _, err := w.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
}
