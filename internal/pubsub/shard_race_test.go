package pubsub

import (
	"sync"
	"testing"

	"abivm/internal/obs"
)

// TestShardedAccessorsConcurrentWithWorkload: while the sharded workload
// publishes and steps (its shards stepping in parallel inside EndStep),
// another goroutine hammers every read surface — TotalCost, Result,
// ShardStats, and the metrics endpoint's registry. Run under -race this
// proves the read path is properly synchronized.
func TestShardedAccessorsConcurrentWithWorkload(t *testing.T) {
	const seed, shards, steps = 13, 4, 60
	spec := ScaledWorkloadSpec(2 * shards)
	sb, names := newSharded(t, spec, shards, nil)
	defer sb.Close()
	reg := obs.NewRegistry()
	sb.SetObs(reg, obs.NewTracer(obs.DefaultTraceCapacity))

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
				if _, err := sb.TotalCost(name); err != nil {
					t.Errorf("TotalCost(%s): %v", name, err)
					return
				}
				if _, err := sb.Result(name); err != nil {
					t.Errorf("Result(%s): %v", name, err)
					return
				}
			}
			sb.ShardStats()
			reg.Snapshot()
		}
	}()
	for i, evs := range chaosScript(seed, steps, spec) {
		for _, ev := range evs {
			if err := sb.Publish(ev.table, ev.mod); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		if _, err := sb.EndStep(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
}
