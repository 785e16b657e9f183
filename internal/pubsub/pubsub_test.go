package pubsub

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"abivm/internal/core"
	"abivm/internal/costfn"
	"abivm/internal/ivm"
	"abivm/internal/obs"
	"abivm/internal/storage"
)

// salesDB builds a small shared database: stations(regioned) and sales.
func salesDB(t *testing.T) *storage.DB {
	t.Helper()
	db := storage.NewDB()
	st, err := storage.NewSchema("stations", []storage.Column{
		{Name: "stationkey", Type: storage.TInt},
		{Name: "region", Type: storage.TString},
	}, "stationkey")
	if err != nil {
		t.Fatal(err)
	}
	stations, err := db.CreateTable(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		region := "EAST"
		if i%2 == 1 {
			region = "WEST"
		}
		if err := stations.Insert(storage.Row{storage.I(i), storage.S(region)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := stations.CreateIndex("st_pk", storage.HashIndex, "stationkey"); err != nil {
		t.Fatal(err)
	}
	sa, err := storage.NewSchema("sales", []storage.Column{
		{Name: "salekey", Type: storage.TInt},
		{Name: "station", Type: storage.TInt},
		{Name: "amount", Type: storage.TFloat},
	}, "salekey")
	if err != nil {
		t.Fatal(err)
	}
	sales, err := db.CreateTable(sa)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40; i++ {
		if err := sales.Insert(storage.Row{storage.I(i), storage.I(i % 8), storage.F(10)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func model2(t *testing.T) *core.CostModel {
	t.Helper()
	fSales, err := costfn.NewLinear(0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	fStations, err := costfn.NewLinear(0.05, 4)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewCostModel(fSales, fStations)
}

const eastQuery = `SELECT SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st
	WHERE s.station = st.stationkey AND st.region = 'EAST'`

const westQuery = `SELECT SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st
	WHERE s.station = st.stationkey AND st.region = 'WEST'`

func TestSubscribeValidation(t *testing.T) {
	b := NewBroker(salesDB(t))
	m := model2(t)
	base := Subscription{Name: "x", Query: eastQuery, Condition: Every(5), Model: m, QoS: 20}

	bad := base
	bad.Name = ""
	if err := b.Subscribe(bad); err == nil || !strings.Contains(err.Error(), "name") {
		t.Errorf("missing name: %v", err)
	}
	bad = base
	bad.Condition = nil
	if err := b.Subscribe(bad); err == nil || !strings.Contains(err.Error(), "condition") {
		t.Errorf("missing condition: %v", err)
	}
	bad = base
	bad.Model = nil
	if err := b.Subscribe(bad); err == nil || !strings.Contains(err.Error(), "cost model") {
		t.Errorf("missing model: %v", err)
	}
	bad = base
	bad.Model = core.NewCostModel(m.Func(0))
	if err := b.Subscribe(bad); err == nil || !strings.Contains(err.Error(), "covers") {
		t.Errorf("arity mismatch: %v", err)
	}
	if err := b.Subscribe(base); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(base); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate name: %v", err)
	}
}

func TestNotificationsFireOnSchedule(t *testing.T) {
	db := salesDB(t)
	b := NewBroker(db)
	if err := b.Subscribe(Subscription{
		Name: "east", Query: eastQuery, Condition: Every(10), Model: model2(t), QoS: 25,
	}); err != nil {
		t.Fatal(err)
	}
	next := int64(40)
	notified := 0
	for step := 0; step < 35; step++ {
		mod := ivm.Insert("", storage.Row{storage.I(next), storage.I(next % 8), storage.F(5)})
		next++
		if err := b.Publish("sales", mod); err != nil {
			t.Fatal(err)
		}
		ns, err := b.EndStep()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ns {
			notified++
			if n.Subscription != "east" {
				t.Errorf("notification for %q", n.Subscription)
			}
			if n.RefreshCost > 25 {
				t.Errorf("QoS violated: %g", n.RefreshCost)
			}
			if len(n.Rows) != 1 {
				t.Errorf("rows = %v", n.Rows)
			}
		}
	}
	if notified != 3 { // steps 10, 20, 30
		t.Fatalf("notifications = %d, want 3", notified)
	}
}

func TestNotificationContentIsFresh(t *testing.T) {
	db := salesDB(t)
	b := NewBroker(db)
	if err := b.Subscribe(Subscription{
		Name: "east", Query: eastQuery, Condition: Every(1), Model: model2(t), QoS: 30,
	}); err != nil {
		t.Fatal(err)
	}
	// Initial EAST content: stations 0,2,4,6 -> 20 sales x 10 = 200.
	mod := ivm.Insert("", storage.Row{storage.I(100), storage.I(0), storage.F(7)})
	if err := b.Publish("sales", mod); err != nil {
		t.Fatal(err)
	}
	ns, err := b.EndStep()
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 0 {
		// Every(1) fires at steps 1, 2, ... (step>0); step 0 is quiet.
		t.Fatalf("unexpected notifications at step 0: %v", ns)
	}
	ns, err = b.EndStep()
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 {
		t.Fatalf("notifications = %d", len(ns))
	}
	if got := ns[0].Rows[0][0].Float(); got != 207 {
		t.Fatalf("SUM = %g, want 207", got)
	}
}

// TestRefreshOnDemand: a refresh outside any step drains the whole
// backlog, charges it to the subscription, and returns the fresh content,
// even for a condition that never fires.
func TestRefreshOnDemand(t *testing.T) {
	b := NewBroker(salesDB(t))
	if err := b.Subscribe(Subscription{
		Name: "east", Query: eastQuery, Condition: func(int) bool { return false }, Model: model2(t), QoS: 30,
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("sales", ivm.Insert("", storage.Row{storage.I(100), storage.I(0), storage.F(7)})); err != nil {
		t.Fatal(err)
	}
	n, err := b.Refresh("east")
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Rows[0][0].Float(); got != 207 || n.Degraded || n.RefreshCost <= 0 {
		t.Fatalf("refresh = %+v, want SUM 207 at a positive cost", n)
	}
	if total, _ := b.TotalCost("east"); total != n.RefreshCost {
		t.Fatalf("TotalCost = %g, want the refresh's %g", total, n.RefreshCost)
	}
	if h, _ := b.Health("east"); h.Pending[0] != 0 || h.Pending[1] != 0 {
		t.Fatalf("pending after refresh = %v", h.Pending)
	}
	if _, err := b.Refresh("nope"); err == nil {
		t.Fatal("Refresh of an unknown subscription succeeded")
	}
}

func TestTwoSubscriptionsShareOneStream(t *testing.T) {
	db := salesDB(t)
	b := NewBroker(db)
	for _, cfg := range []Subscription{
		{Name: "east", Query: eastQuery, Condition: Every(7), Model: model2(t), QoS: 30},
		{Name: "west", Query: westQuery, Condition: Every(11), Model: model2(t), QoS: 30},
	} {
		if err := b.Subscribe(cfg); err != nil {
			t.Fatal(err)
		}
	}
	next := int64(40)
	for step := 0; step < 44; step++ {
		mod := ivm.Insert("", storage.Row{storage.I(next), storage.I(next % 8), storage.F(3)})
		next++
		if err := b.Publish("sales", mod); err != nil {
			t.Fatal(err)
		}
		// Stations churn too: flip a station's region every 4 steps.
		if step%4 == 0 {
			k := int64(step/4) % 8
			region := storage.S("EAST")
			if step%8 == 0 {
				region = storage.S("WEST")
			}
			if err := b.Publish("stations", ivm.Update("",
				[]storage.Value{storage.I(k)}, storage.Row{storage.I(k), region})); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := b.EndStep(); err != nil {
			t.Fatal(err)
		}
		// The live table reflects every publish exactly once.
		if got := db.MustTable("sales").Len(); got != int(next) {
			t.Fatalf("step %d: sales rows %d, want %d (double or missing apply)", step, got, next)
		}
	}
	// Both subscriptions converge to the ground truth after a refresh.
	for _, name := range []string{"east", "west"} {
		cost, err := b.TotalCost(name)
		if err != nil || cost <= 0 {
			t.Fatalf("%s: total cost %g, err %v", name, cost, err)
		}
	}
	// Force a final check via a fresh maintainer comparison.
	check, err := ivm.New(cloneDB(t, db), eastQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := check.Result()
	// Trigger east's refresh by advancing to its next notification step.
	for {
		ns, err := b.EndStep()
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, n := range ns {
			if n.Subscription == "east" {
				if storage.Compare(n.Rows[0][0], want[0][0]) != 0 {
					t.Fatalf("east content %v, ground truth %v", n.Rows[0], want[0])
				}
				found = true
			}
		}
		if found {
			break
		}
	}
}

// cloneDB snapshots a database through the persistence layer — also an
// integration check that snapshots preserve query results.
func cloneDB(t *testing.T, db *storage.DB) *storage.DB {
	t.Helper()
	out, err := storage.ReadSnapshot(db.AppendSnapshot(nil))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPublishToUnwatchedTable(t *testing.T) {
	db := salesDB(t)
	// An extra table nobody subscribes to.
	sch, _ := storage.NewSchema("audit", []storage.Column{{Name: "k", Type: storage.TInt}}, "k")
	if _, err := db.CreateTable(sch); err != nil {
		t.Fatal(err)
	}
	b := NewBroker(db)
	if err := b.Subscribe(Subscription{
		Name: "east", Query: eastQuery, Condition: Every(5), Model: model2(t), QoS: 30,
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("audit", ivm.Insert("", storage.Row{storage.I(1)})); err != nil {
		t.Fatal(err)
	}
	if got := db.MustTable("audit").Len(); got != 1 {
		t.Fatalf("audit rows = %d", got)
	}
}

func TestEveryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) accepted")
		}
	}()
	Every(0)
}

// TestDefaultPolicyReportsDecisions: a subscription that names no policy
// runs the broker's ONLINE-M, and with a registry attached its decision
// loop reports under policy="ONLINE-M" — full-state decisions, the
// candidates they weighed, the drain sizes they chose. Detaching the
// registry stops the reporting.
func TestDefaultPolicyReportsDecisions(t *testing.T) {
	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(db)
	reg := obs.NewRegistry()
	b.SetObs(reg, nil)
	model, err := chaosModel()
	if err != nil {
		t.Fatal(err)
	}
	// Rare notifications, so the backlog reaches the bound in between and
	// the policy has to decide what to drain.
	for i, q := range sharedViewQueries(2) {
		sc := Subscription{Name: fmt.Sprintf("v%d", i), Query: q, Condition: Every(60), Model: model, QoS: chaosQoS}
		if err := b.Subscribe(sc); err != nil {
			t.Fatal(err)
		}
	}
	series := func(name string) obs.MetricSnapshot {
		t.Helper()
		for _, m := range reg.Snapshot() {
			if m.Key() == name+`{policy="ONLINE-M"}` {
				return m
			}
		}
		t.Fatalf("series %s{policy=\"ONLINE-M\"} not exported", name)
		return obs.MetricSnapshot{}
	}
	run := func(script [][]chaosEvent) {
		t.Helper()
		for step, evs := range script {
			for _, ev := range evs {
				if err := b.Publish(ev.table, ev.mod); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if _, err := b.EndStep(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	script := chaosScript(13, 80, DefaultWorkloadSpec())
	run(script[:40])
	decisions := series("policy_decisions_total").Value
	if decisions == 0 || series("policy_candidates_total").Value < decisions {
		t.Fatalf("40 steps: %v decisions over %v candidates", decisions, series("policy_candidates_total").Value)
	}
	if got := series("policy_action_mods").Count; float64(got) != decisions {
		t.Fatalf("policy_action_mods observed %d actions for %v decisions", got, decisions)
	}
	series("policy_refreshes_total")
	b.SetObs(nil, nil)
	run(script[40:])
	if got := series("policy_decisions_total").Value; got != decisions {
		t.Fatalf("detached policy still reported: %v decisions, was %v", got, decisions)
	}
}

// TestUnsubscribeZeroesGauges: a subscription's pubsub_sub_* gauges go to
// zero when it leaves — the registry keeps the series, and the last
// backlog, staleness or degraded flag of a view that no longer exists must
// not read as current — while a remaining subscription's keep counting.
func TestUnsubscribeZeroesGauges(t *testing.T) {
	db, err := chaosDB()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(db)
	reg := obs.NewRegistry()
	b.SetObs(reg, nil)
	b.SetCheckpointEvery(0)
	model, err := chaosModel()
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range sharedViewQueries(2) {
		sc := Subscription{Name: fmt.Sprintf("v%d", i), Query: q, Condition: Every(60), Model: model, QoS: chaosQoS}
		if err := b.Subscribe(sc); err != nil {
			t.Fatal(err)
		}
	}
	for step, evs := range chaosScript(13, 20, DefaultWorkloadSpec()) {
		for _, ev := range evs {
			if err := b.Publish(ev.table, ev.mod); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if _, err := b.EndStep(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	// Mark v0 degraded the way a spent retry budget does, and mirror it.
	b.subs[0].degraded = true
	b.obs.syncSub(b, b.subs[0])
	gauges := func(sub string) map[string]float64 {
		out := map[string]float64{}
		for _, m := range reg.Snapshot() {
			if name, ok := strings.CutSuffix(m.Key(), `{sub="`+sub+`"}`); ok && !strings.HasSuffix(name, "_total") {
				out[name] = m.Value
			}
		}
		return out
	}
	before, other := gauges("v0"), gauges("v1")
	for _, name := range []string{"pubsub_sub_steps_behind", "pubsub_sub_pending_mods", "pubsub_sub_degraded", "pubsub_sub_wal_records"} {
		if before[name] == 0 {
			t.Fatalf("%s is zero before the unsubscribe, nothing to freeze: %v", name, before)
		}
	}
	if len(before) != 5 {
		t.Fatalf("v0 exports %d gauges, want 5: %v", len(before), before)
	}
	if err := b.Unsubscribe("v0"); err != nil {
		t.Fatal(err)
	}
	for name, v := range gauges("v0") {
		if v != 0 {
			t.Errorf("%s still reads %v after the unsubscribe", name, v)
		}
	}
	if got := gauges("v1"); !reflect.DeepEqual(got, other) {
		t.Fatalf("unsubscribing v0 moved v1's gauges: %v, were %v", got, other)
	}
}
