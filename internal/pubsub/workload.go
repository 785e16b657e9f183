package pubsub

import (
	"fmt"
	"math/rand"
	"strings"

	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// WorkloadSpec sizes the demo/chaos workload: how many stations and
// seed sales rows the base tables start with, and the region partition
// the subscriptions aggregate over (one subscription per region). The
// legacy two-region spec is DefaultWorkloadSpec; ScaledWorkloadSpec
// widens it to more regions, and so more subscriptions.
type WorkloadSpec struct {
	Stations  int
	SalesRows int
	Regions   []string
}

// DefaultWorkloadSpec is the original chaos workload: 8 stations, 40
// seed sales rows, EAST/WEST subscriptions. Every draw of the event
// generator under this spec is byte-identical to the pre-spec generator,
// which keeps historical chaos seeds reproducible.
func DefaultWorkloadSpec() WorkloadSpec {
	return WorkloadSpec{Stations: 8, SalesRows: 40, Regions: []string{"EAST", "WEST"}}
}

// ScaledWorkloadSpec widens the workload to n regions (R00, R01, …) with
// four stations and twenty seed sales rows per region.
func ScaledWorkloadSpec(n int) WorkloadSpec {
	if n < 1 {
		n = 1
	}
	regions := make([]string, n)
	for i := range regions {
		regions[i] = fmt.Sprintf("R%02d", i)
	}
	return WorkloadSpec{Stations: 4 * n, SalesRows: 20 * n, Regions: regions}
}

// eventGen produces the chaos workload's modification stream one step at
// a time: a deterministic function of the seed, usable both pregenerated
// (the chaos harness scripts a fixed horizon up front so baseline and
// faulted runs share one stream) and open-ended (the serve demo steps it
// forever).
type eventGen struct {
	rng  *rand.Rand
	spec WorkloadSpec
	live []int64
	next int64
}

func newEventGenSpec(seed int64, spec WorkloadSpec) *eventGen {
	g := &eventGen{rng: rand.New(rand.NewSource(seed)), spec: spec, next: int64(spec.SalesRows)}
	g.live = make([]int64, 0, 2*spec.SalesRows)
	for i := int64(0); i < int64(spec.SalesRows); i++ {
		g.live = append(g.live, i)
	}
	return g
}

// step generates one step's modifications: 1-2 sales inserts, sometimes
// a sales delete, sometimes a station region flip.
func (g *eventGen) step() []chaosEvent {
	var evs []chaosEvent
	for n := 1 + g.rng.Intn(2); n > 0; n-- {
		row := storage.Row{storage.I(g.next), storage.I(int64(g.rng.Intn(g.spec.Stations))), storage.F(float64(1 + g.rng.Intn(20)))}
		evs = append(evs, chaosEvent{table: "sales", mod: ivm.Insert("", row)})
		g.live = append(g.live, g.next)
		g.next++
	}
	if g.rng.Float64() < 0.30 && len(g.live) > g.spec.Stations {
		i := g.rng.Intn(len(g.live))
		key := g.live[i]
		g.live = append(g.live[:i], g.live[i+1:]...)
		evs = append(evs, chaosEvent{table: "sales", mod: ivm.Delete("", storage.I(key))})
	}
	if g.rng.Float64() < 0.25 {
		k := int64(g.rng.Intn(g.spec.Stations))
		region := g.spec.Regions[g.rng.Intn(len(g.spec.Regions))]
		evs = append(evs, chaosEvent{table: "stations", mod: ivm.Update("",
			[]storage.Value{storage.I(k)}, storage.Row{storage.I(k), storage.S(region)})})
	}
	return evs
}

// demoConditionCycle staggers the per-region notification cadences so
// conditions fire on different steps; the first two entries reproduce
// the legacy east (Every 7) / west (Every 11) pair.
var demoConditionCycle = []int{7, 11, 5, 13, 6, 9, 12, 8}

// demoSubscriptionsSpec builds one aggregate subscription per region of
// the spec: name = lowercase region, staggered notification cadence,
// the shared QoS bound, and a fresh cost model each.
func demoSubscriptionsSpec(spec WorkloadSpec) ([]Subscription, error) {
	subs := make([]Subscription, len(spec.Regions))
	for i, region := range spec.Regions {
		model, err := chaosModel()
		if err != nil {
			return nil, err
		}
		subs[i] = Subscription{
			Name:      strings.ToLower(region),
			Query:     regionQuery(region),
			Condition: Every(demoConditionCycle[i%len(demoConditionCycle)]),
			Model:     model,
			QoS:       chaosQoS,
		}
	}
	return subs, nil
}

// DemoWorkload is a self-contained, endlessly steppable pub/sub workload
// over the chaos harness's stations/sales schema: a broker built by
// NewRuntime plus the seeded event stream that feeds it. `abivm serve`
// drives one to have live data behind its metrics endpoint; everything
// it does is deterministic in the seed and the fault schedule.
type DemoWorkload struct {
	// Broker is the underlying broker; attach observability with SetObs
	// and inspect subscriptions through the usual accessors.
	Broker *Broker

	gen *eventGen
}

// NewDemoWorkload builds the broker cfg describes and the event stream
// for seed over cfg.Spec.
func NewDemoWorkload(seed int64, cfg RuntimeConfig) (*DemoWorkload, error) {
	b, err := NewRuntime(cfg)
	if err != nil {
		return nil, err
	}
	return &DemoWorkload{Broker: b, gen: newEventGenSpec(seed, cfg.Spec)}, nil
}

// Step publishes one generated step of modifications and closes the
// broker step, returning any notifications that fired.
func (w *DemoWorkload) Step() ([]Notification, error) {
	for _, ev := range w.gen.step() {
		if err := w.Broker.Publish(ev.table, ev.mod); err != nil {
			return nil, fmt.Errorf("pubsub: demo publish %s: %w", ev.table, err)
		}
	}
	return w.Broker.EndStep()
}
