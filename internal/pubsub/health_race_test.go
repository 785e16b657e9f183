package pubsub

import (
	"sync"
	"testing"
	"time"

	"abivm/internal/fault"
	"abivm/internal/obs"
)

// TestHealthConcurrentWithWorkload hammers the broker's read-side API —
// Health, Subscriptions, Result, TotalCost — from several goroutines
// while the demo workload publishes, drains, degrades, and
// crash-recovers underneath, with the observability sink attached so the
// metrics/trace paths run too. It exists to run under `go test -race`:
// the scrape-while-stepping pattern is exactly what `abivm serve` does
// live, and the race detector proves the broker's RWMutex contract
// covers it.
func TestHealthConcurrentWithWorkload(t *testing.T) {
	w, err := NewDemoWorkload(RuntimeConfig{Seed: 5, Spec: DefaultWorkloadSpec(),
		Injectors: SeededShardInjectors(5, fault.DefaultRates())})
	if err != nil {
		t.Fatal(err)
	}
	w.Broker.setSleep(func(time.Duration) {})
	w.Broker.SetObs(obs.NewRegistry(), obs.NewTracer(64))

	const (
		scrapers = 4
		steps    = 80
	)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				names := w.Broker.Subscriptions()
				if len(names) != 2 {
					t.Errorf("Subscriptions returned %d names, want 2", len(names))
					return
				}
				for _, name := range names {
					if _, err := w.Broker.Health(name); err != nil {
						t.Errorf("Health(%s): %v", name, err)
						return
					}
					if _, err := w.Broker.Result(name); err != nil {
						t.Errorf("Result(%s): %v", name, err)
						return
					}
					if _, err := w.Broker.TotalCost(name); err != nil {
						t.Errorf("TotalCost(%s): %v", name, err)
						return
					}
				}
			}
		}()
	}

	for i := 0; i < steps; i++ {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	// The scraped state must still be coherent once the dust settles.
	for _, name := range w.Broker.Subscriptions() {
		h, err := w.Broker.Health(name)
		if err != nil {
			t.Fatal(err)
		}
		if h.StepsBehind < 0 {
			t.Errorf("%s: negative StepsBehind %d", name, h.StepsBehind)
		}
	}
}
