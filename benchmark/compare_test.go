package main

import (
	"path/filepath"
	"testing"
)

func TestClassify(t *testing.T) {
	lower := metricDef{Name: "step_p50_us", Unit: "us", Better: "lower", Bound: 0.07}
	higher := metricDef{Name: "mods_per_s", Unit: "mods/s", Better: "higher", Bound: 0.07}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, statusOK},
		{"slower", lower, steady, []float64{110, 111, 109, 110, 110}, statusRegressed},
		{"faster", lower, steady, []float64{90, 91, 89, 90, 90}, statusImproved},
		{"less throughput", higher, steady, []float64{90, 91, 89, 90, 90}, statusRegressed},
		{"more throughput", higher, steady, []float64{110, 111, 109, 110, 110}, statusImproved},
		{"within bound", lower, steady, []float64{105, 106, 104, 105, 105}, statusOK},
		{"noisy", lower, steady, []float64{80, 120, 100, 90, 110}, statusUnresolved},
		{"single runs", lower, []float64{100}, []float64{103}, statusOK},
	} {
		if got := classify(c.def, c.a, c.b).status; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; median 5.5.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func recordWith(scale float64) *record {
	rec := &record{}
	for _, w := range workloads {
		r := &runResult{Workload: w.name, Metrics: map[string]metric{}}
		for _, d := range endToEnd {
			v := 100.0
			if d.Name == "step_p50_us" {
				v *= scale
			}
			r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		}
		rec.Runs = append(rec.Runs, r)
	}
	return rec
}

func TestCompareExitStatus(t *testing.T) {
	dir := t.TempDir()
	a, same, slow := filepath.Join(dir, "a.json"), filepath.Join(dir, "same.json"), filepath.Join(dir, "slow.json")
	for path, rec := range map[string]*record{a: recordWith(1), same: recordWith(1.01), slow: recordWith(1.5)} {
		if err := writeRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	if code := compareMain([]string{a, same}); code != 0 {
		t.Errorf("records within bounds: exit %d", code)
	}
	if code := compareMain([]string{a, slow}); code != 1 {
		t.Errorf("a 50%% slower step: exit %d, want 1", code)
	}
	if code := compareMain([]string{a}); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
	rows := compareRecords(recordWith(1), &record{})
	for _, r := range rows {
		if r.status != statusUnresolved {
			t.Fatalf("a workload missing from B: %s %s is %s, want unresolved", r.workload, r.metric, r.status)
		}
	}
}
