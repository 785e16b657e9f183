package pubsub

import (
	"testing"
	"time"

	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// degradedBroker builds a broker whose drains always fail, so every
// drain exhausts its retry budget.
func degradedBroker(t *testing.T, qos float64) (*Broker, *storage.DB) {
	t.Helper()
	db := salesDB(t)
	b := NewBroker(db)
	b.SetInjector(fault.AlwaysAt(fault.SiteDrainPlan))
	if err := b.Subscribe(Subscription{
		Name: "east", Query: eastQuery, Condition: Every(3), Model: model2(t), QoS: qos,
	}); err != nil {
		t.Fatal(err)
	}
	return b, db
}

func TestPersistentFaultsDegradeInsteadOfErroring(t *testing.T) {
	b, _ := degradedBroker(t, 25)
	initial, err := b.Result("east")
	if err != nil {
		t.Fatal(err)
	}
	next := int64(40)
	var degraded []Notification
	for step := 0; step < 12; step++ {
		for i := 0; i < 6; i++ {
			mod := ivm.Insert("", storage.Row{storage.I(next), storage.I(next % 8), storage.F(5)})
			next++
			if err := b.Publish("sales", mod); err != nil {
				t.Fatal(err)
			}
		}
		ns, err := b.EndStep()
		if err != nil {
			t.Fatalf("step %d: EndStep must degrade, not error: %v", step, err)
		}
		degraded = append(degraded, ns...)
	}
	if len(degraded) == 0 {
		t.Fatal("no notifications delivered while degraded")
	}
	for _, n := range degraded {
		if !n.Degraded {
			t.Errorf("step %d: notification not marked degraded", n.Step)
		}
		if n.StepsBehind <= 0 {
			t.Errorf("step %d: StepsBehind = %d, want > 0", n.Step, n.StepsBehind)
		}
		// The degraded content is the last consistent snapshot — the
		// initial view, since no drain ever committed.
		if rowsText(n.Rows) != rowsText(initial) {
			t.Errorf("step %d: degraded rows %v, want stale snapshot %v", n.Step, n.Rows, initial)
		}
	}
	last := degraded[len(degraded)-1]
	if last.CostOvershoot <= 0 {
		t.Errorf("late degraded notification has overshoot %.4g, want > 0 (backlog cost exceeds QoS)", last.CostOvershoot)
	}
	h, err := b.Health("east")
	if err != nil {
		t.Fatal(err)
	}
	if !h.Degraded || h.StepsBehind <= 0 {
		t.Errorf("health = %+v, want degraded and behind", h)
	}
}

func TestDegradedSubscriptionHealsOnSuccessfulDrain(t *testing.T) {
	b, db := degradedBroker(t, 25)
	next := int64(40)
	for step := 0; step < 7; step++ {
		mod := ivm.Insert("", storage.Row{storage.I(next), storage.I(next % 8), storage.F(5)})
		next++
		if err := b.Publish("sales", mod); err != nil {
			t.Fatal(err)
		}
		if _, err := b.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	if h, _ := b.Health("east"); !h.Degraded {
		t.Fatal("subscription did not degrade under persistent drain faults")
	}
	// Clear the faults: the next successful drain heals the subscription
	// and the next notification is fresh again.
	b.SetInjector(fault.Nop{})
	var fresh *Notification
	for step := 0; fresh == nil && step < 4; step++ {
		ns, err := b.EndStep()
		if err != nil {
			t.Fatal(err)
		}
		for i := range ns {
			fresh = &ns[i]
		}
	}
	if fresh == nil {
		t.Fatal("no notification after clearing faults")
	}
	if fresh.Degraded || fresh.StepsBehind != 0 || fresh.CostOvershoot != 0 {
		t.Errorf("post-heal notification still tagged: %+v", fresh)
	}
	h, err := b.Health("east")
	if err != nil {
		t.Fatal(err)
	}
	if h.Degraded {
		t.Errorf("health still degraded after successful refresh: %+v", h)
	}
	// Fresh content matches a from-scratch maintainer over the live DB.
	check, err := ivm.New(cloneDB(t, db), eastQuery)
	if err != nil {
		t.Fatal(err)
	}
	if rowsText(fresh.Rows) != rowsText(check.Result()) {
		t.Errorf("healed content %v, ground truth %v", fresh.Rows, check.Result())
	}
}

// TestRetryCostsNoWallClock: an injector fails by call sequence, not by
// elapsed time, so the broker retries a failed drain at once. Ten steps
// whose every refresh exhausts the retry budget take no measurable time.
func TestRetryCostsNoWallClock(t *testing.T) {
	b := NewBroker(salesDB(t))
	b.SetInjector(fault.AlwaysAt(fault.SiteDrainPlan))
	if err := b.Subscribe(Subscription{
		Name: "east", Query: eastQuery, Condition: Every(1), Model: model2(t), QoS: 25,
	}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	degraded := 0
	for step := 0; step < 10; step++ {
		mod := ivm.Insert("", storage.Row{storage.I(int64(40 + step)), storage.I(int64(step % 8)), storage.F(5)})
		if err := b.Publish("sales", mod); err != nil {
			t.Fatal(err)
		}
		ns, err := b.EndStep()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ns {
			if n.Degraded {
				degraded++
			}
		}
	}
	if elapsed := time.Since(start); elapsed >= 200*time.Millisecond {
		t.Errorf("10 steps of exhausted retries took %v, want < 200ms", elapsed)
	}
	if degraded == 0 {
		t.Error("no degraded notification: the retries were never exhausted")
	}
}

func TestCrashEveryStepStillMatchesCrashFreeRun(t *testing.T) {
	run := func(inj fault.Injector) []Notification {
		t.Helper()
		b := NewBroker(salesDB(t))
		if inj != nil {
			b.SetInjector(inj)
		}
		if err := b.Subscribe(Subscription{
			Name: "east", Query: eastQuery, Condition: Every(4), Model: model2(t), QoS: 30,
		}); err != nil {
			t.Fatal(err)
		}
		var out []Notification
		next := int64(40)
		for step := 0; step < 13; step++ {
			mod := ivm.Insert("", storage.Row{storage.I(next), storage.I(next % 8), storage.F(2)})
			next++
			if err := b.Publish("sales", mod); err != nil {
				t.Fatal(err)
			}
			ns, err := b.EndStep()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ns...)
		}
		return out
	}
	clean := run(nil)
	crashed := run(fault.AlwaysAt(fault.SiteCrash))
	if len(clean) != len(crashed) {
		t.Fatalf("notification counts differ: %d vs %d", len(clean), len(crashed))
	}
	for i := range clean {
		a, c := clean[i], crashed[i]
		if a.Step != c.Step || a.RefreshCost != c.RefreshCost || a.Degraded != c.Degraded ||
			rowsText(a.Rows) != rowsText(c.Rows) {
			t.Errorf("notification %d diverged under crash-every-step: %+v vs %+v", i, a, c)
		}
	}
}

// rowsText renders rows canonically for comparison.
func rowsText(rows []storage.Row) string { return renderRows(rows) }
