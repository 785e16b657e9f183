package pubsub

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"abivm/internal/core"
	"abivm/internal/durable"
	"abivm/internal/ivm"
	"abivm/internal/obs"
	"abivm/internal/storage"
)

// chaosDB and demoSubscriptions are the default-spec (two-region) forms
// most tests here and in shared_test.go want.
func chaosDB() (*storage.DB, error) { return DemoDB(DefaultWorkloadSpec()) }

func demoSubscriptions() ([]Subscription, error) {
	return demoSubscriptionsSpec(DefaultWorkloadSpec())
}

// stepper is the part of the serial and the sharded broker a scripted
// run drives.
type stepper interface {
	Publish(table string, mod ivm.Mod) error
	EndStep() ([]Notification, error)
	Result(name string) ([]storage.Row, error)
	TotalCost(name string) (float64, error)
	SetCheckpointEvery(n int)
}

// runScript executes a scripted workload on the broker cfg describes;
// see transcript.
func runScript(t *testing.T, script [][]chaosEvent, cfg RuntimeConfig) string {
	t.Helper()
	b, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return transcript(t, script, b, b.Subscriptions())
}

// newSharded builds a sharded broker over spec's demo database with
// open as its store opener (nil: in-memory durability) and the spec's
// demo subscriptions, whose names it returns in registration order.
func newSharded(t *testing.T, spec WorkloadSpec, shards int, open durable.Opener) (*ShardedBroker, []string) {
	t.Helper()
	db, err := DemoDB(spec)
	if err != nil {
		t.Fatal(err)
	}
	sb := NewShardedBroker(db, ShardOptions{Shards: shards})
	sb.SetStoreOpener(open)
	subs, err := demoSubscriptionsSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(subs))
	for i, sc := range subs {
		if err := sb.Subscribe(sc); err != nil {
			t.Fatal(err)
		}
		names[i] = sc.Name
	}
	return sb, names
}

// runSharded is runScript on a fault-free sharded broker (newSharded).
func runSharded(t *testing.T, script [][]chaosEvent, spec WorkloadSpec, shards int, open durable.Opener) string {
	t.Helper()
	sb, names := newSharded(t, spec, shards, open)
	defer sb.Close()
	return transcript(t, script, sb, names)
}

// transcript executes a scripted workload on rt (checkpointing every 5
// steps) and renders every notification plus the final contents and
// accumulated costs of the named subscriptions — the transcript the
// brokers are compared on byte for byte.
func transcript(t *testing.T, script [][]chaosEvent, rt stepper, names []string) string {
	t.Helper()
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
	for _, name := range names {
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

// TestShardCountInvariantFaultFree: without faults there is no per-shard
// randomness, so the merged output must not depend on how many shards
// the subscriptions are spread over.
func TestShardCountInvariantFaultFree(t *testing.T) {
	const seed, steps = 3, 50
	spec := ScaledWorkloadSpec(6)
	script := chaosScript(seed, steps, spec)
	var want string
	for _, shards := range []int{1, 2, 3, 4} {
		got := runSharded(t, script, spec, shards, nil)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("shards=%d output diverged from shards=1:\n%s", shards, firstDiff(want, got))
		}
	}
}

// TestShardWithZeroSubscriptions: more shards than subscriptions leaves
// some shards empty; they must step cleanly and report empty stats, and
// the merged output must still match a fully-loaded layout.
func TestShardWithZeroSubscriptions(t *testing.T) {
	const seed, steps = 5, 30
	script := chaosScript(seed, steps, DefaultWorkloadSpec())
	// 5 shards, 2 subscriptions: at least 3 shards stay empty.
	got := runSharded(t, script, DefaultWorkloadSpec(), 5, nil)
	want := runSharded(t, script, DefaultWorkloadSpec(), 1, nil)
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
	rt, _ := newSharded(t, spec, shards, nil)
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

// seriesNames runs script on rt (see transcript) and returns the names
// of the series reg then holds, failing on any series labeled `shard`.
func seriesNames(t *testing.T, script [][]chaosEvent, rt stepper, reg *obs.Registry) map[string]bool {
	t.Helper()
	transcript(t, script, rt, nil)
	names := map[string]bool{}
	for _, m := range reg.Snapshot() {
		for _, l := range m.Labels {
			if l.Key == "shard" {
				t.Errorf("series %s carries a shard label", m.Key())
			}
		}
		names[m.Name] = true
	}
	return names
}

// TestShardedObsIsTheSerialBrokersSeries: the shards report into the
// serial broker's own series — no `shard` label, no shard-only series —
// so a counter reads the sum over shards.
func TestShardedObsIsTheSerialBrokersSeries(t *testing.T) {
	const seed, steps, shards = 4, 12, 2
	spec := ScaledWorkloadSpec(4)
	script := chaosScript(seed, steps, spec)

	sb, _ := newSharded(t, spec, shards, nil)
	defer sb.Close()
	sreg := obs.NewRegistry()
	sb.SetObs(sreg, obs.NewTracer(64))
	sharded := seriesNames(t, script, sb, sreg)

	db, err := DemoDB(spec)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(db)
	subs, err := demoSubscriptionsSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range subs {
		if err := b.Subscribe(sc); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	b.SetObs(reg, obs.NewTracer(64))
	serial := seriesNames(t, script, b, reg)

	for name := range sharded {
		if strings.HasPrefix(name, "pubsub_shard") {
			t.Errorf("sharded broker registered %s", name)
		}
		if !serial[name] {
			t.Errorf("series %s is the sharded broker's only", name)
		}
	}
	for name := range serial {
		if !sharded[name] {
			t.Errorf("series %s is the serial broker's only", name)
		}
	}
	if got := sreg.Counter("pubsub_steps_total").Value(); got != shards*steps {
		t.Errorf("pubsub_steps_total = %d after %d steps on %d shards, want %d", got, steps, shards, shards*steps)
	}
}

// TestShardedStoresKeyedBySubscriptionName: a subscription's durability
// namespace is its name on whichever shard it lands, so one directory
// opener puts every store directly under its root.
func TestShardedStoresKeyedBySubscriptionName(t *testing.T) {
	root := t.TempDir()
	sb, names := newSharded(t, ScaledWorkloadSpec(4), 2, durable.DirOpener(root))
	defer sb.Close()
	for _, name := range names {
		if _, err := os.Stat(filepath.Join(root, name, "MANIFEST")); err != nil {
			t.Errorf("subscription %s's store is not at <root>/%s: %v", name, name, err)
		}
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(names) {
		t.Errorf("root holds %d entries, want one per subscription (%v)", len(entries), names)
	}
}
