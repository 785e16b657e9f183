package pubsub

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"abivm/internal/core"
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
// (checkpointing every 5 steps) and renders
// every notification plus the final contents and accumulated costs —
// the transcript the runtimes are compared on byte for byte.
func runScript(t *testing.T, script [][]chaosEvent, cfg RuntimeConfig) string {
	t.Helper()
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
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
// injector equals the serial broker's, so retries,
// rollbacks, checkpoints, and crash recoveries replay identically
// through the sharded publish path.
func TestSingleShardMatchesSerialBrokerUnderFaults(t *testing.T) {
	const steps = 60
	for seed := int64(1); seed <= 5; seed++ {
		script := chaosScript(seed, steps, DefaultWorkloadSpec())
		cfg := RuntimeConfig{Spec: DefaultWorkloadSpec(),
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
		got := runScript(t, script, RuntimeConfig{Spec: spec, Shards: shards})
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("shards=%d output diverged from shards=1:\n%s", shards, firstDiff(want, got))
		}
	}
}

// TestShardedDeterminismSameSeed: a faulted sharded run is a pure
// function of (seed, shard count) — running it twice must be
// byte-identical, mid-step samples included.
func TestShardedDeterminismSameSeed(t *testing.T) {
	const seed, steps, shards = 9, 40, 3
	spec := ScaledWorkloadSpec(2 * shards)
	script := chaosScript(seed, steps, spec)
	var first string
	for run := 0; run < 2; run++ {
		res, err := chaosRun(script, RuntimeConfig{Shards: shards, Spec: spec, ChainDepth: 3,
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
		t.Fatal("sharded transcript is missing mid-step samples")
	}
}

// TestShardWithZeroSubscriptions: more shards than subscriptions leaves
// some shards empty; they must step cleanly and report empty stats, and
// the merged output must still match a fully-loaded layout.
func TestShardWithZeroSubscriptions(t *testing.T) {
	const seed, steps = 5, 30
	script := chaosScript(seed, steps, DefaultWorkloadSpec())
	// 5 shards, 2 subscriptions: at least 3 shards stay empty.
	got := runScript(t, script, RuntimeConfig{Spec: DefaultWorkloadSpec(), Shards: 5})
	want := runScript(t, script, RuntimeConfig{Spec: DefaultWorkloadSpec(), Shards: 1})
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
			if st.Weight != 0 || st.QueueDepth != 0 {
				t.Fatalf("empty shard %d has non-zero load: %+v", st.Shard, st)
			}
			empty++
		}
	}
	if empty < 3 {
		t.Fatalf("expected >= 3 empty shards, got %d", empty)
	}
}

// TestMidRunSubscribeMatchesSerial: subscribing while deferred
// modifications are still buffered must route the target shard's buffer
// first — otherwise the new subscription's initial snapshot double-counts them.
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

// TestShardedHealthMidStepMatchesSerial: Health routes the owning shard's
// buffer before it reads, so after every publish — mid-step, before the
// barrier — every subscription's health on a sharded runtime equals the
// serial broker's on the same script.
func TestShardedHealthMidStepMatchesSerial(t *testing.T) {
	const seed, steps = 4, 30
	spec := ScaledWorkloadSpec(6)
	script := chaosScript(seed, steps, spec)
	transcript := func(shards int) string {
		rt, err := NewRuntime(RuntimeConfig{Spec: spec, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		names := rt.Subscriptions()
		var out strings.Builder
		for step, evs := range script {
			for i, ev := range evs {
				if err := rt.Publish(ev.table, ev.mod); err != nil {
					t.Fatalf("shards=%d step %d: %v", shards, step, err)
				}
				for _, name := range names {
					h, err := rt.Health(name)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&out, "step=%d pub=%d sub=%s %+v\n", step, i, name, h)
				}
			}
			ns, err := rt.EndStep()
			if err != nil {
				t.Fatalf("shards=%d step %d: %v", shards, step, err)
			}
			renderNotes(&out, ns)
		}
		return out.String()
	}
	serial := transcript(0)
	for _, shards := range []int{1, 3} {
		if got := transcript(shards); got != serial {
			t.Fatalf("shards=%d: mid-step health diverged from the serial broker:\n%s", shards, firstDiff(serial, got))
		}
	}
}

// rendezvous is a policy whose Act blocks until want calls have entered
// it, or a timeout passes, and then drains nothing.
type rendezvous struct {
	want int
	all  chan struct{}

	mu       sync.Mutex
	entered  int
	timedOut bool
}

func (r *rendezvous) Name() string { return "rendezvous" }
func (r *rendezvous) Reset(int)    {}
func (r *rendezvous) Act(_ int, _, pre core.Vector, _ bool) core.Vector {
	r.mu.Lock()
	if r.entered++; r.entered == r.want {
		close(r.all)
	}
	r.mu.Unlock()
	select {
	case <-r.all:
	case <-time.After(5 * time.Second):
		r.mu.Lock()
		r.timedOut = true
		r.mu.Unlock()
	}
	return core.NewVector(len(pre))
}

// TestShardedEndStepRunsShardsInParallel: one subscription per shard, each
// with a policy that waits inside Act until every shard's policy has
// entered. Stepping the shards one after another times every wait out.
func TestShardedEndStepRunsShardsInParallel(t *testing.T) {
	const shards = 3
	spec := ScaledWorkloadSpec(shards)
	db, err := DemoDB(spec)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := demoSubscriptionsSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	sb := NewShardedBroker(db, ShardOptions{Shards: shards})
	defer sb.Close()
	r := &rendezvous{want: shards, all: make(chan struct{})}
	for _, sc := range subs {
		sc.Policy = r
		if err := sb.Subscribe(sc); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range sb.ShardStats() {
		if st.Subscriptions != 1 {
			t.Fatalf("test setup: shard %d holds %d subscriptions, want 1", st.Shard, st.Subscriptions)
		}
	}
	if _, err := sb.EndStep(); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.timedOut {
		t.Fatal("a shard's policy waited out its timeout for the others: EndStep stepped the shards one after another")
	}
}

// TestShardedBrokerLeavesNoGoroutines: building, subscribing and
// publishing start no goroutine, and a run of steps leaves none behind.
func TestShardedBrokerLeavesNoGoroutines(t *testing.T) {
	const seed, steps, shards = 2, 20, 4
	spec := ScaledWorkloadSpec(shards)
	base := runtime.NumGoroutine()
	rt, err := NewRuntime(RuntimeConfig{Spec: spec, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("construction and subscription started %d goroutines", n-base)
	}
	for step, evs := range chaosScript(seed, steps, spec) {
		for _, ev := range evs {
			if err := rt.Publish(ev.table, ev.mod); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		// Before the first EndStep no stepping goroutine can be unwinding,
		// so the count is exact.
		if n := runtime.NumGoroutine(); step == 0 && n > base {
			t.Fatalf("publishing started %d goroutines", n-base)
		}
		if _, err := rt.EndStep(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	// A shard's goroutine may still be unwinding past wg.Done when EndStep
	// returns; give it a moment to exit.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines outlived the steps", n-base)
	}
}
