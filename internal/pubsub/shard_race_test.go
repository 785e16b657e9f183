package pubsub

import (
	"sync"
	"testing"
	"time"

	"abivm/internal/fault"
	"abivm/internal/obs"
)

// TestShardedAccessorsConcurrentWithWorkload is the race companion of
// the quiesce fix: while the sharded workload publishes and steps (its
// shard workers draining concurrently), other goroutines hammer every
// read surface — TotalCost, Health, Result, Subscriptions, ShardStats,
// Quiesce, and the metrics endpoint's registry. Run under -race this
// proves the mid-run comparison path is properly synchronized; the
// chaos harness additionally quiesces before sampling so the values are
// schedule-independent, not merely race-free.
func TestShardedAccessorsConcurrentWithWorkload(t *testing.T) {
	const seed, shards, steps = 13, 4, 60
	w, err := NewDemoWorkload(RuntimeConfig{Seed: seed, Shards: shards, Spec: ScaledWorkloadSpec(2 * shards),
		Injectors: SeededShardInjectors(seed, fault.DefaultRates())})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sb := w.Broker.(*ShardedBroker)
	w.Broker.setSleep(func(time.Duration) {})
	reg := obs.NewRegistry()
	tr := obs.NewTracer(obs.DefaultTraceCapacity)
	w.Broker.SetObs(reg, tr)

	names := w.Broker.Subscriptions()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
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
			sb.ShardStats()
			reg.Snapshot()
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := sb.Quiesce(); err != nil {
				t.Errorf("Quiesce: %v", err)
				return
			}
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
