package pubsub

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"abivm/internal/core"
	"abivm/internal/costfn"
	"abivm/internal/ivm"
	"abivm/internal/policy"
	"abivm/internal/storage"
)

func TestPublishToNonexistentTable(t *testing.T) {
	b := NewBroker(salesDB(t))
	if err := b.Subscribe(Subscription{
		Name: "east", Query: eastQuery, Condition: Every(5), Model: model2(t), QoS: 30,
	}); err != nil {
		t.Fatal(err)
	}
	err := b.Publish("ghost", ivm.Insert("", storage.Row{storage.I(1)}))
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("publish to missing table: err = %v, want error naming the table", err)
	}
	// The failed publish left the broker usable: a real publish still
	// routes and the step closes cleanly.
	if err := b.Publish("sales", ivm.Insert("", storage.Row{storage.I(100), storage.I(0), storage.F(1)})); err != nil {
		t.Fatal(err)
	}
	if _, err := b.EndStep(); err != nil {
		t.Fatal(err)
	}
	h, err := b.Health("east")
	if err != nil {
		t.Fatal(err)
	}
	if h.Degraded {
		t.Errorf("failed publish degraded the subscription: %+v", h)
	}
}

func TestSubscribeDuplicateLeavesBrokerIntact(t *testing.T) {
	db := salesDB(t)
	b := NewBroker(db)
	cfg := Subscription{Name: "east", Query: eastQuery, Condition: Every(5), Model: model2(t), QoS: 30}
	if err := b.Subscribe(cfg); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(cfg); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate subscribe: err = %v", err)
	}
	// Exactly one registration: a publish routes once (live table grows by
	// one row, pending queue holds one delta) and EndStep emits at most
	// one notification stream for the name.
	if err := b.Publish("sales", ivm.Insert("", storage.Row{storage.I(200), storage.I(0), storage.F(2)})); err != nil {
		t.Fatal(err)
	}
	if got := db.MustTable("sales").Len(); got != 41 {
		t.Fatalf("sales rows = %d, want 41 (publish must apply exactly once)", got)
	}
	h, err := b.Health("east")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 0}; !core.Vector(h.Pending).Equal(core.Vector(want)) {
		t.Fatalf("pending = %v, want %v", h.Pending, want)
	}
}

// rogue is a policy that violates the action contract on demand.
type rogue struct {
	n   int
	act core.Vector
}

func (r *rogue) Name() string { return "rogue" }
func (r *rogue) Reset(n int)  { r.n = n }
func (r *rogue) Act(step int, arrived, pending core.Vector, must bool) core.Vector {
	if r.act != nil {
		return r.act.Clone()
	}
	return core.NewVector(r.n)
}

var _ policy.Policy = (*rogue)(nil)

func TestEndStepAfterFailedStepLeavesStateUnchanged(t *testing.T) {
	db := salesDB(t)
	b := NewBroker(db)
	pol := &rogue{}
	if err := b.Subscribe(Subscription{
		Name: "east", Query: eastQuery, Condition: Every(3), Model: model2(t), QoS: 30, Policy: pol,
	}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := b.Publish("sales", ivm.Insert("", storage.Row{storage.I(300 + i), storage.I(0), storage.F(1)})); err != nil {
			t.Fatal(err)
		}
	}
	before, err := b.Health("east")
	if err != nil {
		t.Fatal(err)
	}
	rowsBefore, err := b.Result("east")
	if err != nil {
		t.Fatal(err)
	}

	// The policy over-drains: asks for more than is pending.
	pol.act = core.Vector{99, 0}
	if _, err := b.EndStep(); err == nil || !strings.Contains(err.Error(), "out-of-range") {
		t.Fatalf("EndStep with rogue policy: err = %v", err)
	}
	// Negative actions are rejected too.
	pol.act = core.Vector{-1, 0}
	if _, err := b.EndStep(); err == nil || !strings.Contains(err.Error(), "out-of-range") {
		t.Fatalf("EndStep with negative action: err = %v", err)
	}

	// The failed steps changed nothing: pending deltas, WAL length, and
	// view contents are exactly as before, not half-applied.
	after, err := b.Health("east")
	if err != nil {
		t.Fatal(err)
	}
	if !core.Vector(after.Pending).Equal(core.Vector(before.Pending)) {
		t.Errorf("pending changed across failed step: %v -> %v", before.Pending, after.Pending)
	}
	if after.WALRecords != before.WALRecords {
		t.Errorf("WAL grew across failed step: %d -> %d", before.WALRecords, after.WALRecords)
	}
	rowsAfter, err := b.Result("east")
	if err != nil {
		t.Fatal(err)
	}
	if rowsText(rowsAfter) != rowsText(rowsBefore) {
		t.Errorf("view changed across failed step: %v -> %v", rowsBefore, rowsAfter)
	}
	if cost, err := b.TotalCost("east"); err != nil || cost != 0 {
		t.Errorf("failed steps accrued cost %g (err %v), want 0", cost, err)
	}

	// With the policy behaving again the same broker finishes the step
	// and delivers a correct notification.
	pol.act = nil
	var got []Notification
	for len(got) == 0 {
		ns, err := b.EndStep()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ns...)
	}
	check, err := ivm.New(cloneDB(t, db), eastQuery)
	if err != nil {
		t.Fatal(err)
	}
	if rowsText(got[0].Rows) != rowsText(check.Result()) {
		t.Errorf("post-recovery notification %v, ground truth %v", got[0].Rows, check.Result())
	}
}

// TestSubscribeRejectsInvalidQoS: a negative or NaN QoS bound can never be
// met — the policy answers with no action — so Subscribe refuses it,
// naming the subscription, instead of letting the first EndStep fail
// every subscription's step. QoS 0, refresh every step, stays valid.
func TestSubscribeRejectsInvalidQoS(t *testing.T) {
	b := NewBroker(salesDB(t))
	for _, qos := range []float64{-1, math.NaN()} {
		err := b.Subscribe(Subscription{Name: "bad", Query: eastQuery, Condition: Every(5), Model: model2(t), QoS: qos})
		if err == nil || !strings.Contains(err.Error(), `"bad"`) || !strings.Contains(err.Error(), "QoS") {
			t.Errorf("QoS %v: err = %v, want an error naming the subscription and its QoS", qos, err)
		}
	}
	if err := b.Subscribe(Subscription{Name: "east", Query: eastQuery, Condition: Every(1), Model: model2(t), QoS: 0}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := b.Publish("sales", ivm.Insert("", storage.Row{storage.I(400 + i), storage.I(0), storage.F(1)})); err != nil {
			t.Fatal(err)
		}
		if _, err := b.EndStep(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		h, err := b.Health("east")
		if err != nil {
			t.Fatal(err)
		}
		if !core.Vector(h.Pending).IsZero() {
			t.Fatalf("step %d: QoS 0 left %v pending", i, h.Pending)
		}
	}
}

// TestSubscribeRejectsViewOverTableCap: the policies enumerate subsets of
// a view's tables, up to core.MaxTables of them, so Subscribe refuses a
// view over more, naming the cap, and subscribes nothing — instead of the
// first full state panicking the broker.
func TestSubscribeRejectsViewOverTableCap(t *testing.T) {
	db := storage.NewDB()
	n := core.MaxTables + 1
	from, on := make([]string, n), make([]string, n-1)
	fs := make([]core.CostFunc, n)
	for i := range from {
		schema, err := storage.NewSchema(fmt.Sprintf("t%d", i), []storage.Column{{Name: "k", Type: storage.TInt}}, "k")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateTable(schema); err != nil {
			t.Fatal(err)
		}
		from[i] = fmt.Sprintf("t%d AS a%d", i, i)
		if i > 0 {
			on[i-1] = fmt.Sprintf("a%d.k = a%d.k", i-1, i)
		}
		if fs[i], err = costfn.NewLinear(1, 1); err != nil {
			t.Fatal(err)
		}
	}
	b := NewBroker(db)
	err := b.Subscribe(Subscription{Name: "wide", Query: "SELECT COUNT(*) FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(on, " AND "),
		Condition: Every(1), Model: core.NewCostModel(fs...), QoS: 1})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(core.MaxTables)) {
		t.Fatalf("Subscribe over %d tables: err = %v, want one naming the cap %d", n, err, core.MaxTables)
	}
	if subs := b.Subscriptions(); len(subs) != 0 {
		t.Fatalf("a refused view left subscriptions %v", subs)
	}
}

// TestShortPolicyActionIsAnError: an action of the wrong length is out of
// range like any other malformed action — an error, not a panic.
func TestShortPolicyActionIsAnError(t *testing.T) {
	b := NewBroker(salesDB(t))
	if err := b.Subscribe(Subscription{
		Name: "east", Query: eastQuery, Condition: Every(3), Model: model2(t), QoS: 30, Policy: &rogue{act: core.Vector{0}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.EndStep(); err == nil || !strings.Contains(err.Error(), "out-of-range") {
		t.Fatalf("EndStep with a one-entry action on a two-table view: err = %v", err)
	}
}
