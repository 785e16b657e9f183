package viewc

import (
	"fmt"
	"strings"
	"testing"

	"abivm/internal/pubsub"
	"abivm/internal/storage"
)

// TestCompiledMatchesHandWired is the acceptance property for the serve
// -catalog path: a broker fed compiled subscriptions (CompiledView.Subscription)
// produces step results byte-identical to a broker whose subscriptions
// were hand-wired from the same parts via plain Subscribe, over the same
// deterministic event stream. The two brokers share nothing — separate
// databases, separately compiled views — so the equality also re-proves
// compile determinism end to end.
func TestCompiledMatchesHandWired(t *testing.T) {
	const seed, steps = 11, 40
	spec := pubsub.DefaultWorkloadSpec()

	run := func(wire func(b *pubsub.Broker, views []*CompiledView) error) string {
		w, err := pubsub.NewDemoWorkload(seed, pubsub.RuntimeConfig{Spec: spec,
			Subscribe: func(db *storage.DB, b *pubsub.Broker) error {
				views, err := CompileCatalog(db, demoCatalog, Options{Seed: seed, Condition: pubsub.Every(5)})
				if err != nil {
					return err
				}
				return wire(b, views)
			}})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for i := 0; i < steps; i++ {
			ns, err := w.Step()
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range ns {
				fmt.Fprintf(&sb, "step=%d sub=%s cost=%.6f degraded=%v behind=%d rows=%v\n",
					n.Step, n.Subscription, n.RefreshCost, n.Degraded, n.StepsBehind, n.Rows)
			}
		}
		return sb.String()
	}

	compiled := run(func(b *pubsub.Broker, views []*CompiledView) error {
		for _, cv := range views {
			if err := b.Subscribe(cv.Subscription()); err != nil {
				return err
			}
		}
		return nil
	})
	handWired := run(func(b *pubsub.Broker, views []*CompiledView) error {
		for _, cv := range views {
			// Spread the compiled parts into a plain Subscription by hand —
			// the pre-compiler wiring style.
			if err := b.Subscribe(pubsub.Subscription{
				Name:      cv.Name,
				Query:     cv.Query,
				Condition: pubsub.Every(5),
				Model:     cv.Model,
				QoS:       cv.QoS,
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if compiled == "" {
		t.Fatal("no notifications fired")
	}
	if compiled != handWired {
		t.Fatalf("transcripts differ:\n--- compiled ---\n%s--- hand-wired ---\n%s", compiled, handWired)
	}
}

// TestCompiledOnShardedBroker: a compiled subscription works on the sharded
// broker too.
func TestCompiledOnShardedBroker(t *testing.T) {
	spec := pubsub.ScaledWorkloadSpec(4)
	db, err := pubsub.DemoDB(spec)
	if err != nil {
		t.Fatal(err)
	}
	views, err := CompileCatalog(db, demoCatalog, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sb := pubsub.NewShardedBroker(db, pubsub.ShardOptions{Shards: 2})
	defer sb.Close()
	for _, cv := range views {
		if err := sb.Subscribe(cv.Subscription()); err != nil {
			t.Fatalf("%s: %v", cv.Name, err)
		}
	}
	got := 0
	for _, st := range sb.ShardStats() {
		got += st.Subscriptions
	}
	if got != len(views) {
		t.Fatalf("registered %d subscriptions, want %d", got, len(views))
	}
	if _, err := sb.EndStep(); err != nil {
		t.Fatal(err)
	}
	for _, cv := range views {
		if _, err := sb.Result(cv.Name); err != nil {
			t.Fatalf("%s: %v", cv.Name, err)
		}
	}
}
