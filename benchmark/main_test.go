package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestQuickSmoke runs every workload at toy size, end to end and traced,
// with the oracle and the fanout hash agreement on. It is what breaks
// when a later change removes an engine or a durability tier the
// benchmark drives.
func TestQuickSmoke(t *testing.T) {
	if code := benchMain([]string{"-quick"}); code != 0 {
		t.Fatalf("benchmark -quick exited %d", code)
	}
	for _, w := range workloads {
		if _, err := os.Stat(filepath.Join(outDir(), "trace-"+w.name+".json")); err != nil {
			t.Errorf("traced run left no trace file: %v", err)
		}
	}
}

func TestRefusesMoreProcsThanCores(t *testing.T) {
	if checkProcs(2, 2) != nil || checkProcs(1, 2) != nil {
		t.Error("GOMAXPROCS <= nproc refused")
	}
	if checkProcs(4, 2) == nil {
		t.Error("GOMAXPROCS=4 on 2 cores accepted")
	}
	t.Setenv("GOGC", "")
	env, err := currentEnvironment(defaultSeconds, false)
	if err != nil {
		t.Fatal(err)
	}
	if env.GOGC != "100" || env.GoVersion == "" || env.NProc < 1 {
		t.Errorf("environment %+v", env)
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != manifest() {
		t.Error("BENCHMARK.json differs from the catalogue in the source; regenerate it with `benchmark manifest > BENCHMARK.json`")
	}
}

func TestCataloguesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better=%q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
	sz := fullSizing(defaultSeconds)
	if sz.segments < 3 || sz.segSteps < minSegSteps || sz.segSteps%stepQuantum != 0 || sz.warmup%stepQuantum != 0 {
		t.Errorf("committed sizing %+v: want >= 3 segments of >= %d steps in multiples of %d", sz, minSegSteps, stepQuantum)
	}
}
