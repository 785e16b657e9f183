package pubsub

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"abivm/internal/core"
	"abivm/internal/costfn"
	"abivm/internal/fault"
	"abivm/internal/policy"
	"abivm/internal/storage"
)

var updateArrivals = flag.Bool("update", false, "rewrite testdata/arrivals.golden from this run")

// spyPolicy records every Act's arrival vector and pending vector, then
// lets the marginal-rate policy decide, so the drains it records against
// are the ones a broker really schedules.
type spyPolicy struct {
	policy.Policy
	name string
	log  *strings.Builder
}

func (p *spyPolicy) Act(t int, d, pre core.Vector, refresh bool) core.Vector {
	fmt.Fprintf(p.log, "step=%d sub=%s d=%v pre=%v\n", t, p.name, d, pre)
	return p.Policy.Act(t, d, pre, refresh)
}

// fallbackEngine reports every recovery as a fallback, so a crash
// restarts the subscription's arrival count wherever it lands.
type fallbackEngine struct{ viewEngine }

func (e fallbackEngine) Recover() (bool, error) {
	_, err := e.viewEngine.Recover()
	return true, err
}

// crashAt fires a crash at the listed polls of the crash site (the
// broker polls it once per subscription per step) and nothing else.
type crashAt struct {
	at    map[int]bool
	polls int
}

func (c *crashAt) Hit(site fault.Site) error {
	if site != fault.SiteCrash {
		return nil
	}
	c.polls++
	if !c.at[c.polls] {
		return nil
	}
	return &fault.Error{Site: site, Kind: fault.KindCrash, Seq: c.polls}
}

// TestArrivalVectorsUnchanged drives one stream, with fallback
// recoveries injected, through a per-view and a shared broker, and holds the arrival and pending vectors every policy call
// sees against testdata/arrivals.golden.
func TestArrivalVectorsUnchanged(t *testing.T) {
	spec := ScaledWorkloadSpec(4)
	script := chaosScript(11, 60, spec)
	var out strings.Builder
	for _, cfg := range []RuntimeConfig{
		{Spec: spec},
		{Spec: spec, Shared: true},
	} {
		logs := map[string]*strings.Builder{}
		cfg.Injector = &crashAt{at: map[int]bool{4: true, 19: true, 33: true, 58: true, 101: true}}
		cfg.Subscribe = func(_ *storage.DB, rt *Broker) error {
			subs, err := demoSubscriptionsSpec(spec)
			if err != nil {
				return err
			}
			fSales, err := costfn.NewLinear(0.5, 0.1)
			if err != nil {
				return err
			}
			subs = append(subs, Subscription{
				Name:      "big-sales",
				Query:     "SELECT s.salekey, s.amount FROM sales AS s WHERE s.amount > 10",
				Condition: Every(4),
				Model:     core.NewCostModel(fSales),
				QoS:       chaosQoS,
			})
			for _, sc := range subs {
				logs[sc.Name] = &strings.Builder{}
				sc.Policy = &spyPolicy{Policy: policy.NewOnlineMarginal(sc.Model, sc.QoS, nil), name: sc.Name, log: logs[sc.Name]}
				if err := rt.Subscribe(sc); err != nil {
					return err
				}
			}
			return nil
		}
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range rt.subs {
			s.eng = fallbackEngine{s.eng}
		}
		for step, evs := range script {
			for _, ev := range evs {
				if err := rt.Publish(ev.table, ev.mod); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if _, err := rt.EndStep(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		names := make([]string, 0, len(logs))
		for name := range logs {
			names = append(names, name)
		}
		sort.Strings(names)
		// The block header keeps the golden file's format.
		fmt.Fprintf(&out, "# shards=0 shared=%v\n", cfg.Shared)
		for _, name := range names {
			out.WriteString(logs[name].String())
		}
	}
	got := out.String()
	if idle := strings.Count(got, "d=[0 0]") + strings.Count(got, "d=[0]"); 2*idle > strings.Count(got, " d=") {
		t.Fatalf("%d of %d policy calls saw no arrival", idle, strings.Count(got, " d="))
	}
	const golden = "testdata/arrivals.golden"
	if *updateArrivals {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
