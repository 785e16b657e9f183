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
func chaosDB() (*storage.DB, error) { return chaosDBSpec(DefaultWorkloadSpec()) }

func demoSubscriptions() ([]Subscription, error) {
	return demoSubscriptionsSpec(DefaultWorkloadSpec())
}

// runSerialScript executes a scripted workload on the serial broker and
// renders every notification plus the final contents — the reference
// transcript the sharded runs are compared against byte for byte.
func runSerialScript(t *testing.T, script [][]chaosEvent, subs []Subscription, seed int64, inj fault.Injector) string {
	t.Helper()
	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(db)
	b.setSleep(func(time.Duration) {})
	b.SetRetrySeed(seed)
	b.SetCheckpointEvery(5)
	if inj != nil {
		b.SetInjector(inj)
	}
	for _, sc := range subs {
		if err := b.Subscribe(sc); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	for t2, evs := range script {
		for _, ev := range evs {
			if err := b.Publish(ev.table, ev.mod); err != nil {
				t.Fatalf("step %d: publish: %v", t2, err)
			}
		}
		ns, err := b.EndStep()
		if err != nil {
			t.Fatalf("step %d: %v", t2, err)
		}
		renderNotes(&out, ns)
	}
	renderFinals(t, &out, b.Result, b.TotalCost, subs)
	return out.String()
}

// runShardedScript is runSerialScript on a ShardedBroker with the given
// shard count; factory supplies per-shard injectors (nil = fault-free).
func runShardedScript(t *testing.T, script [][]chaosEvent, subs []Subscription, seed int64, shards int, factory func(int) fault.Injector) string {
	t.Helper()
	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	sb := NewShardedBroker(db, ShardOptions{Shards: shards})
	defer sb.Close()
	sb.setSleep(func(time.Duration) {})
	sb.SetRetrySeed(seed)
	sb.SetCheckpointEvery(5)
	if factory != nil {
		sb.SetInjectors(factory)
	}
	for _, sc := range subs {
		if err := sb.Subscribe(sc); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	for t2, evs := range script {
		for _, ev := range evs {
			if err := sb.Publish(ev.table, ev.mod); err != nil {
				t.Fatalf("step %d: publish: %v", t2, err)
			}
		}
		ns, err := sb.EndStep()
		if err != nil {
			t.Fatalf("step %d: %v", t2, err)
		}
		renderNotes(&out, ns)
	}
	renderFinals(t, &out, sb.Result, sb.TotalCost, subs)
	return out.String()
}

func renderNotes(out *strings.Builder, ns []Notification) {
	for _, n := range ns {
		fmt.Fprintf(out, "step=%d sub=%s degraded=%v behind=%d over=%.9g cost=%.9g rows=%s\n",
			n.Step, n.Subscription, n.Degraded, n.StepsBehind, n.CostOvershoot,
			n.RefreshCost, renderRows(n.Rows))
	}
}

func renderFinals(t *testing.T, out *strings.Builder, result func(string) ([]storage.Row, error), totalCost func(string) (float64, error), subs []Subscription) {
	t.Helper()
	for _, sc := range subs {
		rows, err := result(sc.Name)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := totalCost(sc.Name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(out, "final %s: cost=%.9g rows=%s\n", sc.Name, cost, renderRows(rows))
	}
}

// TestSingleShardMatchesSerialBroker is the tentpole's core invariant:
// with one shard, the sharded runtime's observable output —
// notifications, final contents, accumulated costs — is byte-identical
// to the serial broker on the same workload, fault-free.
func TestSingleShardMatchesSerialBroker(t *testing.T) {
	const seed, steps = 11, 60
	script := chaosScript(seed, steps, DefaultWorkloadSpec())
	subs, err := demoSubscriptions()
	if err != nil {
		t.Fatal(err)
	}
	subs2, err := demoSubscriptions()
	if err != nil {
		t.Fatal(err)
	}
	serial := runSerialScript(t, script, subs, seed, nil)
	sharded := runShardedScript(t, script, subs2, seed, 1, nil)
	if serial != sharded {
		t.Fatalf("single-shard output diverged from serial broker:\n%s", firstDiff(serial, sharded))
	}
}

// TestSingleShardMatchesSerialBrokerUnderFaults extends the invariant to
// faulted runs: shard 0's injector and jitter seed equal the serial
// broker's, so retries, rollbacks, checkpoints, and crash recoveries
// replay identically through the sharded ingest path.
func TestSingleShardMatchesSerialBrokerUnderFaults(t *testing.T) {
	const steps = 60
	for seed := int64(1); seed <= 5; seed++ {
		script := chaosScript(seed, steps, DefaultWorkloadSpec())
		subs, err := demoSubscriptions()
		if err != nil {
			t.Fatal(err)
		}
		subs2, err := demoSubscriptions()
		if err != nil {
			t.Fatal(err)
		}
		serial := runSerialScript(t, script, subs, seed, fault.NewSeeded(seed, fault.DefaultRates()))
		sharded := runShardedScript(t, script, subs2, seed, 1, SeededShardInjectors(seed, fault.DefaultRates()))
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
		subs, err := demoSubscriptionsSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		db, err := chaosDBSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		sb := NewShardedBroker(db, ShardOptions{Shards: shards})
		sb.SetRetrySeed(seed)
		sb.SetCheckpointEvery(5)
		for _, sc := range subs {
			if err := sb.Subscribe(sc); err != nil {
				t.Fatal(err)
			}
		}
		var out strings.Builder
		for t2, evs := range script {
			for _, ev := range evs {
				if err := sb.Publish(ev.table, ev.mod); err != nil {
					t.Fatalf("shards=%d step %d: %v", shards, t2, err)
				}
			}
			ns, err := sb.EndStep()
			if err != nil {
				t.Fatalf("shards=%d step %d: %v", shards, t2, err)
			}
			renderNotes(&out, ns)
		}
		renderFinals(t, &out, sb.Result, sb.TotalCost, subs)
		sb.Close()
		if want == "" {
			want = out.String()
		} else if out.String() != want {
			t.Fatalf("shards=%d output diverged from shards=1:\n%s", shards, firstDiff(want, out.String()))
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
		res, err := chaosRun(script, chaosParams{seed: seed, shards: shards, spec: spec, cpEvery: 5, depth: 3,
			injectors: SeededShardInjectors(seed, fault.DefaultRates())})
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
	subs, err := demoSubscriptions()
	if err != nil {
		t.Fatal(err)
	}
	subs2, err := demoSubscriptions()
	if err != nil {
		t.Fatal(err)
	}
	// 5 shards, 2 subscriptions: at least 3 shards stay empty.
	got := runShardedScript(t, script, subs, seed, 5, nil)
	want := runShardedScript(t, script, subs2, seed, 1, nil)
	if got != want {
		t.Fatalf("empty shards changed the merged output:\n%s", firstDiff(want, got))
	}

	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	sb := NewShardedBroker(db, ShardOptions{Shards: 5})
	defer sb.Close()
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
