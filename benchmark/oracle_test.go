package main

import (
	"testing"

	"abivm/internal/pubsub"
	"abivm/internal/storage"
)

// corruptBroker returns one subscription's content with a row dropped.
type corruptBroker struct {
	broker
	victim string
}

func (c corruptBroker) Result(name string) ([]storage.Row, error) {
	rows, err := c.broker.Result(name)
	if err == nil && name == c.victim && len(rows) > 0 {
		rows = rows[1:]
	}
	return rows, err
}

// costlyBroker reports one notification per step, from step from on, as
// having cost twice its subscription's QoS bound.
type costlyBroker struct {
	broker
	qos  map[string]float64
	from int
}

func (c costlyBroker) EndStep() ([]pubsub.Notification, error) {
	notes, err := c.broker.EndStep()
	if len(notes) > 0 && notes[0].Step >= c.from {
		notes[0].RefreshCost = 2 * c.qos[notes[0].Subscription]
	}
	return notes, err
}

func quickInstance(t *testing.T, name string) *instance {
	t.Helper()
	in, err := workloadByName(name).setup(1, quickSizing(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(in.close)
	return in
}

func TestCleanRunHasNoFailures(t *testing.T) {
	r, err := quickInstance(t, "fanout-classic").measure(1, quickSizing(), setupTimes{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 || r.exitCode() != 0 {
		t.Errorf("clean run: failed=%d exit=%d (%s)", r.Failed, r.exitCode(), r.Failure)
	}
	if r.Attempted == 0 {
		t.Error("clean run attempted nothing")
	}
}

func TestCorruptedViewIsCountedAndFlipsExit(t *testing.T) {
	in := quickInstance(t, "fanout-classic")
	in.b = corruptBroker{in.b, "t3-r00"}
	r, err := in.measure(1, quickSizing(), setupTimes{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 1 {
		t.Errorf("one corrupted view: failed=%d, want 1 (%s)", r.Failed, r.Failure)
	}
	if r.exitCode() == 0 {
		t.Error("a corrupted view left the exit status at 0")
	}
}

func TestRefreshCostOverQoSIsCountedAndFlipsExit(t *testing.T) {
	in := quickInstance(t, "fanout-classic")
	in.b = costlyBroker{in.b, in.qos, quickSizing().warmup}
	r, err := in.measure(1, quickSizing(), setupTimes{})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(r.Samples); r.Failed != want {
		t.Errorf("one over-budget notification on each of %d notifying steps: failed=%d", want, r.Failed)
	}
	if r.exitCode() == 0 {
		t.Error("refresh cost over C left the exit status at 0")
	}
	if r.failedShare() <= 0 {
		t.Error("failed_share stayed 0")
	}
}

func TestDegradedNotificationIsAFailure(t *testing.T) {
	var a account
	a.notification(pubsub.Notification{Subscription: "v", Degraded: true}, 40)
	a.notification(pubsub.Notification{Subscription: "v", RefreshCost: 40}, 40)
	if a.attempted != 2 || a.failed != 1 {
		t.Errorf("attempted=%d failed=%d, want 2 and 1", a.attempted, a.failed)
	}
}

// TestTemplatesSubscribeOnBothEngines subscribes every view template on
// the per-view engine and on the shared dataflow graph and checks the
// initial content of each against the oracle.
func TestTemplatesSubscribeOnBothEngines(t *testing.T) {
	queries := append([]string{t1Query(0), t3Query(0), t4Query(91)}, t2Queries...)
	for _, shared := range []bool{false, true} {
		db, _, err := newWorld(quickSizing().apply(uniformStream), 1)
		if err != nil {
			t.Fatal(err)
		}
		b := pubsub.NewBroker(db)
		if err := b.SetSharedDataflow(shared); err != nil {
			t.Fatal(err)
		}
		in := &instance{w: workloads[0], db: db, b: b, finalStep: -1}
		for i, q := range queries {
			tabs := twoTables
			if q == t4Query(91) {
				tabs = []string{tblSales}
			}
			v := viewSpec{name: string(rune('a' + i)), query: q, every: 5, tabs: tabs}
			sub, err := in.subscription(v)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Subscribe(sub); err != nil {
				t.Errorf("shared=%v: %s: %v", shared, q, err)
				continue
			}
			in.views = append(in.views, v)
		}
		var a account
		if _, err := in.verify(&a); err != nil {
			t.Fatal(err)
		}
		if a.failed != 0 {
			t.Errorf("shared=%v: %s", shared, a.firstFailure)
		}
	}
}

func TestMultisetEqual(t *testing.T) {
	a := []storage.Row{{storage.I(1), storage.F(2)}, {storage.I(1), storage.F(2)}, {storage.I(2), storage.F(1)}}
	b := []storage.Row{{storage.I(2), storage.F(1)}, {storage.I(1), storage.F(2 + 1e-12)}, {storage.I(1), storage.F(2)}}
	if !multisetEqual(a, b) {
		t.Error("reordered rows with a float within tolerance compared unequal")
	}
	if multisetEqual(a, b[:2]) || multisetEqual(a, []storage.Row{a[0], a[2], a[2]}) {
		t.Error("different multiplicities compared equal")
	}
}
