package pubsub

import (
	"fmt"
	"sync"
	"testing"

	"abivm/internal/fault"
	"abivm/internal/obs"
	"abivm/internal/storage"
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

// TestResultConcurrentAfterPartialDrainAndRecover calls Broker.Result from
// several goroutines at once after every step of a scripted run — between
// steps nothing writes, which is all the broker's read lock promises — on
// both engines, with one sink crashing and recovering midway. A step that
// drained without notifying, or restored a view, leaves entries no render
// has yet put in key order; concurrent readers must each see the content
// one reader alone sees. It exists to run under `go test -race`.
func TestResultConcurrentAfterPartialDrainAndRecover(t *testing.T) {
	const steps, readers = 24, 4
	queries := []string{
		`SELECT s.station, s.amount FROM sales AS s, stations AS st WHERE s.station = st.stationkey`,
		`SELECT s.station, MIN(s.amount), MAX(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY s.station`,
	}
	script := chaosScript(7, steps, DefaultWorkloadSpec())
	for _, shared := range []bool{false, true} {
		model, err := chaosModel()
		if err != nil {
			t.Fatal(err)
		}
		crash := &crashOnce{n: steps}
		rt, err := NewRuntime(RuntimeConfig{Spec: DefaultWorkloadSpec(), Shared: shared,
			Injectors: func(int) fault.Injector { return crash },
			Subscribe: func(_ *storage.DB, rt Runtime) error {
				for i, q := range queries {
					if err := rt.Subscribe(Subscription{Name: fmt.Sprintf("v%d", i), Query: q,
						Condition: Every(steps), Model: model, QoS: chaosQoS}); err != nil {
						return err
					}
				}
				return nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		for step, evs := range script {
			for _, ev := range evs {
				if err := rt.Publish(ev.table, ev.mod); err != nil {
					t.Fatalf("shared=%v step %d: %v", shared, step, err)
				}
			}
			if _, err := rt.EndStep(); err != nil {
				t.Fatalf("shared=%v step %d: %v", shared, step, err)
			}
			for _, name := range rt.Subscriptions() {
				got := make([]string, readers)
				var wg sync.WaitGroup
				for r := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						rows, err := rt.Result(name)
						if err != nil {
							t.Error(err)
						}
						got[r] = renderRows(rows)
					}()
				}
				wg.Wait()
				rows, err := rt.Result(name)
				if err != nil {
					t.Fatal(err)
				}
				for r, g := range got {
					if want := renderRows(rows); g != want {
						t.Fatalf("shared=%v step %d %s: reader %d saw\n%s\nwant\n%s", shared, step, name, r, g, want)
					}
				}
			}
		}
		rt.Close()
		if crash.polls <= crash.n {
			t.Fatalf("shared=%v: crash site polled %d times, the crash at poll %d never fired", shared, crash.polls, crash.n)
		}
	}
}
