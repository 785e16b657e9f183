package pubsub

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// chaosDB and demoSubscriptions are the default-spec (two-region) forms
// most tests here and in shared_test.go want.
func chaosDB() (*storage.DB, error) { return DemoDB(DefaultWorkloadSpec()) }

func demoSubscriptions() ([]Subscription, error) {
	return demoSubscriptionsSpec(DefaultWorkloadSpec())
}

// runScript executes a scripted workload on the runtime cfg describes
// (checkpointing every 5 steps, no real backoff sleeps) and renders
// every notification plus the final contents and accumulated costs —
// the transcript the runtimes are compared on byte for byte.
func runScript(t *testing.T, script [][]chaosEvent, cfg RuntimeConfig) string {
	t.Helper()
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.setSleep(func(time.Duration) {})
	rt.SetCheckpointEvery(5)
	var out strings.Builder
	for t2, evs := range script {
		for _, ev := range evs {
			if err := rt.Publish(ev.table, ev.mod); err != nil {
				t.Fatalf("step %d: publish: %v", t2, err)
			}
		}
		ns, err := rt.EndStep()
		if err != nil {
			t.Fatalf("step %d: %v", t2, err)
		}
		renderNotes(&out, ns)
	}
	for _, name := range rt.Subscriptions() {
		rows, err := rt.Result(name)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := rt.TotalCost(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "final %s: cost=%.9g rows=%s\n", name, cost, renderRows(rows))
	}
	return out.String()
}

func renderNotes(out *strings.Builder, ns []Notification) {
	for _, n := range ns {
		fmt.Fprintf(out, "step=%d sub=%s degraded=%v behind=%d over=%.9g cost=%.9g rows=%s\n",
			n.Step, n.Subscription, n.Degraded, n.StepsBehind, n.CostOvershoot,
			n.RefreshCost, renderRows(n.Rows))
	}
}

// TestSingleShardMatchesSerialBrokerUnderFaults extends the fault-free
// single-shard identity (TestRuntimeMatrix) to faulted runs: shard 0's
// injector and jitter seed equal the serial broker's, so retries,
// rollbacks, checkpoints, and crash recoveries replay identically
// through the sharded ingest path.
func TestSingleShardMatchesSerialBrokerUnderFaults(t *testing.T) {
	const steps = 60
	for seed := int64(1); seed <= 5; seed++ {
		script := chaosScript(seed, steps, DefaultWorkloadSpec())
		cfg := RuntimeConfig{Seed: seed, Spec: DefaultWorkloadSpec(),
			Injectors: SeededShardInjectors(seed, fault.DefaultRates())}
		serial := runScript(t, script, cfg)
		cfg.Shards = 1
		sharded := runScript(t, script, cfg)
		if serial != sharded {
			t.Fatalf("seed %d: faulted single-shard output diverged from serial broker:\n%s",
				seed, firstDiff(serial, sharded))
		}
	}
}

// TestShardCountInvariantFaultFree: without faults there is no per-shard
// randomness, so the merged output must not depend on how many shards
// the subscriptions are spread over.
func TestShardCountInvariantFaultFree(t *testing.T) {
	const seed, steps = 3, 50
	spec := ScaledWorkloadSpec(6)
	script := chaosScript(seed, steps, spec)
	var want string
	for _, shards := range []int{1, 2, 3, 4} {
		got := runScript(t, script, RuntimeConfig{Seed: seed, Spec: spec, Shards: shards})
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("shards=%d output diverged from shards=1:\n%s", shards, firstDiff(want, got))
		}
	}
}

// TestShardedDeterminismSameSeed: a faulted sharded run is a pure
// function of (seed, shard count) — running it twice must be
// byte-identical, quiesced mid-run samples included.
func TestShardedDeterminismSameSeed(t *testing.T) {
	const seed, steps, shards = 9, 40, 3
	spec := ScaledWorkloadSpec(2 * shards)
	script := chaosScript(seed, steps, spec)
	var first string
	for run := 0; run < 2; run++ {
		res, err := chaosRun(script, RuntimeConfig{Seed: seed, Shards: shards, Spec: spec, ChainDepth: 3,
			Injectors: SeededShardInjectors(seed, fault.DefaultRates())}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = res.output
		} else if res.output != first {
			t.Fatalf("same seed+shards produced different output:\n%s", firstDiff(first, res.output))
		}
	}
	if !strings.Contains(first, "sample ") {
		t.Fatal("sharded transcript is missing quiesced mid-run samples")
	}
}

// TestShardWithZeroSubscriptions: more shards than subscriptions leaves
// some shards empty; they must step cleanly and report empty stats, and
// the merged output must still match a fully-loaded layout.
func TestShardWithZeroSubscriptions(t *testing.T) {
	const seed, steps = 5, 30
	script := chaosScript(seed, steps, DefaultWorkloadSpec())
	// 5 shards, 2 subscriptions: at least 3 shards stay empty.
	got := runScript(t, script, RuntimeConfig{Seed: seed, Spec: DefaultWorkloadSpec(), Shards: 5})
	want := runScript(t, script, RuntimeConfig{Seed: seed, Spec: DefaultWorkloadSpec(), Shards: 1})
	if got != want {
		t.Fatalf("empty shards changed the merged output:\n%s", firstDiff(want, got))
	}

	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	sb := NewShardedBroker(db, ShardOptions{Shards: 5})
	defer sb.Close()
	subs, err := demoSubscriptions()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range subs {
		sc.Name += "-b"
		if err := sb.Subscribe(sc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sb.EndStep(); err != nil {
		t.Fatalf("EndStep with empty shards: %v", err)
	}
	stats := sb.ShardStats()
	if len(stats) != 5 {
		t.Fatalf("ShardStats returned %d entries, want 5", len(stats))
	}
	empty := 0
	for _, st := range stats {
		if st.Subscriptions == 0 {
			if st.Weight != 0 || st.QueueDepth != 0 || st.BacklogCost != 0 {
				t.Fatalf("empty shard %d has non-zero load: %+v", st.Shard, st)
			}
			empty++
		}
	}
	if empty < 3 {
		t.Fatalf("expected >= 3 empty shards, got %d", empty)
	}
}

// TestQueueFullRejection: overrunning a shard's per-step admission cap
// surfaces as a typed *RejectionError, leaves the base tables untouched,
// and clears at the next step barrier.
func TestQueueFullRejection(t *testing.T) {
	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	sb := NewShardedBroker(db, ShardOptions{Shards: 2, QueueCap: 3})
	defer sb.Close()
	subs, err := demoSubscriptions()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range subs {
		if err := sb.Subscribe(sc); err != nil {
			t.Fatal(err)
		}
	}
	sales, err := db.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	pub := func(key int64) error {
		return sb.Publish("sales", ivm.Insert("", storage.Row{storage.I(key), storage.I(0), storage.F(1)}))
	}
	for i := int64(0); i < 3; i++ {
		if err := pub(100 + i); err != nil {
			t.Fatalf("publish %d within cap: %v", i, err)
		}
	}
	before := sales.Len()
	err = pub(200)
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("over-cap publish returned %v, want *RejectionError", err)
	}
	if rej.Reason != RejectQueueFull || rej.Table != "sales" || rej.Admitted != 3 {
		t.Fatalf("unexpected rejection detail: %+v", rej)
	}
	if got := sales.Len(); got != before {
		t.Fatalf("rejected publish mutated the live table: %d rows, want %d", got, before)
	}
	if _, err := sb.EndStep(); err != nil {
		t.Fatal(err)
	}
	// The barrier reset the admission counter; the same publish is
	// admitted now.
	if err := pub(200); err != nil {
		t.Fatalf("publish after barrier still rejected: %v", err)
	}
}

// TestBacklogRejection: a shard whose end-of-step refresh cost exceeds
// MaxBacklogCost rejects publishes with the typed backlog reason until a
// step drains it back under the bound.
func TestBacklogRejection(t *testing.T) {
	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	// A bound far below one queued modification's refresh cost: the first
	// step with any pending backlog trips it.
	sb := NewShardedBroker(db, ShardOptions{Shards: 1, MaxBacklogCost: 1e-6})
	defer sb.Close()
	subs, err := demoSubscriptions()
	if err != nil {
		t.Fatal(err)
	}
	// Conditions that never fire inside the test keep the policy from
	// draining the backlog to zero.
	for _, sc := range subs {
		sc.Condition = Every(1 << 20)
		if err := sb.Subscribe(sc); err != nil {
			t.Fatal(err)
		}
	}
	if err := sb.Publish("sales", ivm.Insert("", storage.Row{storage.I(500), storage.I(0), storage.F(1)})); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.EndStep(); err != nil {
		t.Fatal(err)
	}
	stats := sb.ShardStats()
	if stats[0].BacklogCost <= 1e-6 {
		t.Fatalf("test setup: backlog cost %.9g did not exceed the bound", stats[0].BacklogCost)
	}
	err = sb.Publish("sales", ivm.Insert("", storage.Row{storage.I(501), storage.I(0), storage.F(1)}))
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("over-backlog publish returned %v, want *RejectionError", err)
	}
	if rej.Reason != RejectBacklog {
		t.Fatalf("rejection reason %v, want backlog", rej.Reason)
	}
	if rej.Error() == "" || !strings.Contains(rej.Error(), "backlog") {
		t.Fatalf("unhelpful rejection message %q", rej.Error())
	}
}

// TestMidRunSubscribeMatchesSerial: subscribing while deferred
// modifications are still queued must quiesce the target shard first —
// otherwise the new subscription's initial snapshot double-counts them.
func TestMidRunSubscribeMatchesSerial(t *testing.T) {
	const seed, steps, joinAt = 21, 40, 17
	script := chaosScript(seed, steps, DefaultWorkloadSpec())

	run := func(publish func(string, ivm.Mod) error, subscribe func(Subscription) error,
		endStep func() ([]Notification, error), result func(string) ([]storage.Row, error)) string {
		subs, err := demoSubscriptions()
		if err != nil {
			t.Fatal(err)
		}
		if err := subscribe(subs[0]); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		for t2, evs := range script {
			for _, ev := range evs {
				if err := publish(ev.table, ev.mod); err != nil {
					t.Fatalf("step %d: %v", t2, err)
				}
				// Join mid-step, with this step's modifications still in
				// flight toward the shard.
				if t2 == joinAt {
					if err := subscribe(subs[1]); err != nil {
						t.Fatal(err)
					}
				}
			}
			ns, err := endStep()
			if err != nil {
				t.Fatalf("step %d: %v", t2, err)
			}
			renderNotes(&out, ns)
		}
		for _, sc := range subs {
			rows, err := result(sc.Name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "final %s: %s\n", sc.Name, renderRows(rows))
		}
		return out.String()
	}

	dbA, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(dbA)
	serial := run(b.Publish, b.Subscribe, b.EndStep, b.Result)

	dbB, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	sb := NewShardedBroker(dbB, ShardOptions{Shards: 2})
	defer sb.Close()
	sharded := run(sb.Publish, sb.Subscribe, sb.EndStep, sb.Result)

	if serial != sharded {
		t.Fatalf("mid-run subscribe diverged from serial broker:\n%s", firstDiff(serial, sharded))
	}
}

// TestClosedShardedBrokerReturnsErrors: after Close the shard workers are
// gone, so every method that would hand them work must fail fast instead
// of blocking on their channels while holding the broker's lock.
func TestClosedShardedBrokerReturnsErrors(t *testing.T) {
	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	sb := NewShardedBroker(db, ShardOptions{Shards: 2})
	subs, err := demoSubscriptions()
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Subscribe(subs[0]); err != nil {
		t.Fatal(err)
	}
	sb.Close()
	sb.Close() // idempotent
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := sb.EndStep(); !errors.Is(err, errClosed) {
			t.Errorf("EndStep after Close: %v", err)
		}
		if err := sb.Quiesce(); !errors.Is(err, errClosed) {
			t.Errorf("Quiesce after Close: %v", err)
		}
		if err := sb.Subscribe(subs[1]); !errors.Is(err, errClosed) {
			t.Errorf("Subscribe after Close: %v", err)
		}
		err := sb.Publish("sales", ivm.Insert("", storage.Row{storage.I(900), storage.I(0), storage.F(1)}))
		if !errors.Is(err, errClosed) {
			t.Errorf("Publish after Close: %v", err)
		}
		// The read side keeps answering from the shards' last state.
		if _, err := sb.Result(subs[0].Name); err != nil {
			t.Errorf("Result after Close: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a closed ShardedBroker blocked instead of returning an error")
	}
}
