package pubsub

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
	"abivm/internal/testenv"
)

// publishAllocsPerSub measures what routing one modification costs per
// watching subscription: the allocation count of a batch of sales
// inserts published to a broker with n overlapping views, minus the same
// batch on a one-view broker (the live-table change and the graph's
// shared work cancel out), per modification and extra subscription.
func publishAllocsPerSub(t *testing.T, shared bool, n int) float64 {
	const batch = 512
	run := func(views int) float64 {
		db, err := chaosDB()
		if err != nil {
			t.Fatal(err)
		}
		b := NewBroker(db)
		if shared {
			if err := b.SetSharedDataflow(true); err != nil {
				t.Fatal(err)
			}
		}
		subscribeSharedViews(t, b, views)
		next := int64(1000)
		return testing.AllocsPerRun(1, func() {
			for i := 0; i < batch; i++ {
				row := storage.Row{storage.I(next), storage.I(next % 8), storage.F(1)}
				next++
				if err := b.Publish("sales", ivm.Insert("", row)); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	return (run(n) - run(1)) / float64(batch*(n-1))
}

// TestPublishRoutingAllocs pins the ingest hot path on both engines:
// handing a modification to one more subscription costs no allocation
// beyond the amortized growth of that subscription's queue and redo log
// (a few dozen doublings over the batch — far below one per
// modification). An arrival method that allocates per call — a variadic
// parameter behind the viewEngine interface does — lands at one or more
// and fails here, before it shows up as +24 allocs/mod on a 24-view
// workload.
func TestPublishRoutingAllocs(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	for _, mode := range []struct {
		name   string
		shared bool
	}{{"classic", false}, {"shared", true}} {
		if got := publishAllocsPerSub(t, mode.shared, 24); got >= 0.5 {
			t.Errorf("%s: routing one modification costs %.2f allocations per subscription, want amortized growth only (< 0.5)", mode.name, got)
		} else {
			t.Logf("%s: %.3f allocations per modification per subscription", mode.name, got)
		}
	}
}

// endStepAllocs counts what one EndStep allocates on a broker with n
// overlapping views whose conditions never fire and whose bound no
// backlog reaches: a step in which no subscription drains or notifies.
// Each measured step follows the publish of one sale, so every policy
// sees arrivals and a non-empty state.
func endStepAllocs(t *testing.T, shared bool, n int) uint64 {
	t.Helper()
	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(db)
	b.SetCheckpointEvery(0)
	if shared {
		if err := b.SetSharedDataflow(true); err != nil {
			t.Fatal(err)
		}
	}
	model, err := chaosModel()
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range sharedViewQueries(n) {
		if err := b.Subscribe(Subscription{
			Name: fmt.Sprintf("v%d", i), Query: q, Model: model, QoS: 1e9,
			Condition: func(int) bool { return false },
		}); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var allocs uint64
	for step := int64(0); step < 4; step++ {
		row := storage.Row{storage.I(1000 + step), storage.I(step % 8), storage.F(1)}
		if err := b.Publish("sales", ivm.Insert("", row)); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		notes, err := b.EndStep()
		runtime.ReadMemStats(&after)
		if err != nil || len(notes) != 0 {
			t.Fatalf("step %d: %d notifications, err %v; want a quiet step", step, len(notes), err)
		}
		allocs = after.Mallocs - before.Mallocs
	}
	for _, s := range b.subs {
		if s.total != 0 {
			t.Fatalf("%s drained (cost %g); want a step without drains", s.cfg.Name, s.total)
		}
	}
	return allocs
}

// TestEndStepAllocsPerIdleSubscription pins the step loop's cost per
// subscription that neither drains nor notifies: nothing. The broker
// hands the policy its live arrival counter and pending scratch instead
// of copies of them, and the policy keeps its own scratch across calls,
// the action it returns included.
func TestEndStepAllocsPerIdleSubscription(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	const few, many = 1, 9
	for _, mode := range []struct {
		name   string
		shared bool
	}{{"classic", false}, {"shared", true}} {
		lo, hi := endStepAllocs(t, mode.shared, few), endStepAllocs(t, mode.shared, many)
		if per := float64(hi-lo) / (many - few); per > 0 {
			t.Errorf("%s: a quiet step allocates %d times with %d subscriptions, %d with %d: %.2f per subscription, want none",
				mode.name, lo, few, hi, many, per)
		}
	}
}

// stepAllocsPerMod counts what the step path allocates per modification:
// a broker over DemoDB with the sharedViewQueries catalogue, on the
// shared graph or the per-view engine, every view notifying every fifth
// step and draining whenever its bound fills, under a seeded churn of
// sales inserts, deletes and updates and of station region moves. It
// counts every Publish and EndStep of steps steps after a warm-up of as
// many.
func stepAllocsPerMod(t *testing.T, shared bool, views, steps int) float64 {
	t.Helper()
	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(db)
	if shared {
		if err := b.SetSharedDataflow(true); err != nil {
			t.Fatal(err)
		}
	}
	subscribeSharedViews(t, b, views)
	rng := rand.New(rand.NewSource(7))
	live := make([]int64, 40)
	for i := range live {
		live[i] = int64(i)
	}
	next := int64(len(live))
	sale := func(k int64) storage.Row {
		return storage.Row{storage.I(k), storage.I(int64(rng.Intn(8))), storage.F(float64(1 + rng.Intn(20)))}
	}
	publish := func(table string, mod ivm.Mod) {
		if err := b.Publish(table, mod); err != nil {
			t.Fatal(err)
		}
	}
	step := func() int {
		mods := 0
		for i := 0; i < 4; i++ {
			switch r := rng.Intn(4); {
			case r < 2 || len(live) < 20:
				publish("sales", ivm.Insert("", sale(next)))
				live = append(live, next)
				next++
			case r < 3:
				at := rng.Intn(len(live))
				publish("sales", ivm.Delete("", storage.I(live[at])))
				live = append(live[:at], live[at+1:]...)
			default:
				k := live[rng.Intn(len(live))]
				publish("sales", ivm.Update("", []storage.Value{storage.I(k)}, sale(k)))
			}
			mods++
		}
		if rng.Intn(4) == 0 {
			k := int64(rng.Intn(8))
			publish("stations", ivm.Update("", []storage.Value{storage.I(k)},
				storage.Row{storage.I(k), storage.S([]string{"EAST", "WEST"}[rng.Intn(2)])}))
			mods++
		}
		if _, err := b.EndStep(); err != nil {
			t.Fatal(err)
		}
		return mods
	}
	cost := func() (sum float64) {
		for _, s := range b.subs {
			sum += s.total
		}
		return sum
	}
	for i := 0; i < steps; i++ {
		step()
	}
	warm := cost()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mods := 0
	for i := 0; i < steps; i++ {
		mods += step()
	}
	runtime.ReadMemStats(&after)
	if cost() == warm {
		t.Fatal("no view drained in the counted steps")
	}
	if st := b.DataflowStats(); shared && (st.Folds == 0 || st.TrimVisited == 0) {
		t.Fatalf("the stream folded %d deltas and trimmed over %d entries: it did not drain or trim", st.Folds, st.TrimVisited)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(mods)
}

// TestSharedStepAllocsPerModification pins the allocations of one
// modification on the shared step path, publish to notification: 3.80
// with about a tenth of slack. Most of what is left is the live table's
// row copies and key strings and the stream's own rows; an arrangement
// tail that allocates per delta, an entry that clones its key, a render
// that allocates per row, a policy that allocates its action or a step
// that grows its notification slice by doubling each lands above it
// (6.57 with all five).
func TestSharedStepAllocsPerModification(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	const bound = 4.2
	if got := stepAllocsPerMod(t, true, 12, 400); got > bound {
		t.Errorf("the shared step path allocates %.3f times per modification, want at most %.1f", got, bound)
	} else {
		t.Logf("%.3f allocations per modification", got)
	}
}

// TestClassicStepAllocsPerModification pins the same stream on the
// per-view engine, each of the 12 views its own maintainer: 198.65 with
// a little under a tenth of slack. A drain undoes its replica writes by
// count and marks its dirty keys with the encodings and values its net
// delta took, one per touched key; an undo journal of one closure per
// replica write lands above the bound (217.7), and so does a dirty-key
// pass that encodes and projects each key again (221.8), or both with a
// net delta that encodes a key at every touch (256.98).
func TestClassicStepAllocsPerModification(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	const bound = 215.0
	if got := stepAllocsPerMod(t, false, 12, 400); got > bound {
		t.Errorf("the classic step path allocates %.3f times per modification, want at most %.0f", got, bound)
	} else {
		t.Logf("%.3f allocations per modification", got)
	}
}
