package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func quickCfg() Config {
	c := DefaultConfig()
	c.Scale = 0.002
	c.Quick = true
	return c
}

func TestFig1Shapes(t *testing.T) {
	res, err := Fig1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// At batch size 1, the unindexed-side scan makes c_dR more expensive
	// than one indexed probe.
	if res.CostDeltaR[0] <= res.CostDeltaS[0] {
		t.Errorf("c_dR(1)=%g should exceed c_dS(1)=%g", res.CostDeltaR[0], res.CostDeltaS[0])
	}
	// c_dS grows faster: fitted slope comparison.
	if res.LinS[0] <= res.LinR[0] {
		t.Errorf("slope of c_dS (%g) should exceed slope of c_dR (%g)", res.LinS[0], res.LinR[0])
	}
	// The curves cross, making asymmetric processing profitable.
	if res.CrossoverBatch < 0 {
		t.Error("no crossover found")
	}
}

func TestFig4Shapes(t *testing.T) {
	res, err := Fig4(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Supplier batches dominate PartSupp batches at every size.
	for i, k := range res.K {
		if res.CostS[i] <= res.CostPS[i] {
			t.Errorf("k=%d: Supplier cost %g not above PartSupp cost %g", k, res.CostS[i], res.CostPS[i])
		}
	}
	// Supplier's intercept (the hash build over PartSupp) is the dominant
	// asymmetry.
	if res.LinS[1] <= res.LinPS[1] {
		t.Errorf("Supplier intercept %g should exceed PartSupp intercept %g", res.LinS[1], res.LinPS[1])
	}
}

func TestFig5Validation(t *testing.T) {
	res, err := Fig5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) != 3 {
		t.Fatalf("plans = %v", res.Plans)
	}
	for i, p := range res.Plans {
		if res.Actual[i] <= 0 || res.Simulated[i] <= 0 {
			t.Errorf("%s: non-positive costs (sim %g, actual %g)", p, res.Simulated[i], res.Actual[i])
		}
		// "Negligible difference": under 15% even in quick mode.
		if res.DiffPct[i] > 15 {
			t.Errorf("%s: simulated-vs-actual diff %.1f%% too large", p, res.DiffPct[i])
		}
	}
}

func TestFig6Ordering(t *testing.T) {
	res, err := Fig6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var naiveSum, optSum, adaptSum, onlineMSum float64
	for i := range res.RefreshTimes {
		// OPT-LGM lower-bounds every policy (all produce valid plans,
		// and under linear costs OPT-LGM is globally optimal).
		for _, v := range []float64{res.Naive[i], res.Adapt[i], res.Online[i], res.OnlineM[i]} {
			if v < res.OptLGM[i]-1e-6 {
				t.Errorf("T=%d: policy cost %g below OPT %g", res.RefreshTimes[i], v, res.OptLGM[i])
			}
		}
		naiveSum += res.Naive[i]
		optSum += res.OptLGM[i]
		adaptSum += res.Adapt[i]
		onlineMSum += res.OnlineM[i]
	}
	if naiveSum <= optSum {
		t.Error("NAIVE not worse than OPT overall")
	}
	// The paper's claim: ADAPT tracks OPT much more closely than NAIVE.
	if adaptSum >= naiveSum {
		t.Errorf("ADAPT (%g) not better than NAIVE (%g)", adaptSum, naiveSum)
	}
	if onlineMSum >= naiveSum {
		t.Errorf("ONLINE-M (%g) not better than NAIVE (%g)", onlineMSum, naiveSum)
	}
}

func TestFig7Ordering(t *testing.T) {
	res, err := Fig7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Streams) != 4 {
		t.Fatalf("streams = %v", res.Streams)
	}
	for i, s := range res.Streams {
		if res.Naive[i] < res.OptLGM[i]-1e-6 {
			t.Errorf("%s: NAIVE %g below OPT %g", s, res.Naive[i], res.OptLGM[i])
		}
		if res.Online[i] < res.OptLGM[i]-1e-6 {
			t.Errorf("%s: ONLINE %g below OPT %g", s, res.Online[i], res.OptLGM[i])
		}
		// ONLINE-M stays within 15% of the offline optimum.
		if res.OnlineM[i] > 1.15*res.OptLGM[i] {
			t.Errorf("%s: ONLINE-M %g too far above OPT %g", s, res.OnlineM[i], res.OptLGM[i])
		}
	}
}

func TestTightnessMatchesConstruction(t *testing.T) {
	res, err := Tightness(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i, eps := range res.Eps {
		if math.Abs(res.Ratio[i]-res.Bound[i]) > 1e-9 {
			t.Errorf("eps=%g: ratio %.6f != construction ratio %.6f", eps, res.Ratio[i], res.Bound[i])
		}
	}
	// The ratio grows toward 2 as eps shrinks.
	for i := 1; i < len(res.Ratio); i++ {
		if res.Ratio[i] <= res.Ratio[i-1] {
			t.Errorf("ratio not increasing: %v", res.Ratio)
		}
	}
}

func TestConcaveStudy(t *testing.T) {
	res, err := ConcaveStudy(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Families) != 3 {
		t.Fatalf("families = %v", res.Families)
	}
	for i, fam := range res.Families {
		if !res.TheoremOK[i] {
			t.Errorf("%s: a ratio exceeded 2 — Theorem 1 violated", fam)
		}
		if res.WorstGap[i] < 1-1e-9 {
			t.Errorf("%s: worst ratio %g below 1 — LGM beat the global optimum", fam, res.WorstGap[i])
		}
	}
	// Theorem 2: linear instances are solved optimally by the LGM search.
	if res.Families[0] != "linear" || res.WorstGap[0] > 1+1e-6 {
		t.Errorf("linear worst ratio %g, want 1", res.WorstGap[0])
	}
	// The concave conjecture: gap well below the step family's potential.
	if res.WorstGap[1] > 1.5 {
		t.Errorf("concave worst ratio %g unexpectedly large", res.WorstGap[1])
	}
}

func TestStagedStudy(t *testing.T) {
	res, err := Staged(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Constraints) == 0 {
		t.Fatal("no sweep points")
	}
	for i, c := range res.Constraints {
		if res.TwoStage[i] > res.SingleStage[i]+1e-9 {
			t.Errorf("C=%g: staging lost (%g vs %g)", c, res.TwoStage[i], res.SingleStage[i])
		}
	}
	// Gains shrink as the constraint loosens (more batching headroom for
	// the single-stage model too).
	if res.Gain[0] <= res.Gain[len(res.Gain)-1] {
		t.Errorf("gain should diminish with looser constraints: %v", res.Gain)
	}
	// At the tightest constraint staging must win by a clear margin.
	if res.Gain[0] < 1.5 {
		t.Errorf("tight-constraint gain %.2f below expectation", res.Gain[0])
	}
}

func TestPoliciesSuite(t *testing.T) {
	res, err := Policies(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 7 || res.Names[0] != "OPT-LGM" {
		t.Fatalf("names = %v", res.Names)
	}
	for i, name := range res.Names {
		if res.OverOpt[i] < 1-1e-9 {
			t.Errorf("%s: cost/OPT %.3f below 1 — beat the optimum", name, res.OverOpt[i])
		}
	}
	// The library's extensions must track the optimum closely even in
	// quick mode.
	for i, name := range res.Names {
		if name == "ONLINE-M" && res.OverOpt[i] > 1.25 {
			t.Errorf("ONLINE-M at %.3f of OPT", res.OverOpt[i])
		}
	}
}

func TestTablesRender(t *testing.T) {
	cfg := quickCfg()
	for name, fn := range map[string]func(Config) (*Table, error){
		"fig1": Fig1Table, "fig4": Fig4Table, "fig5": Fig5Table,
		"fig6": Fig6Table, "fig7": Fig7Table, "tight": TightnessTable,
		"concave": ConcaveStudyTable, "staged": StagedTable,
	} {
		tbl, err := fn(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		tbl.Render(&buf)
		out := buf.String()
		if !strings.Contains(out, tbl.Title) {
			t.Errorf("%s: rendered output missing title", name)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", name)
		}
	}
}

func TestAllRendersEveryExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := All(quickCfg(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 1", "Figure 4", "Figure 5", "Figure 6", "Figure 7",
		"tightness", "concave", "staged", "ablations",
	} {
		if !strings.Contains(strings.ToLower(out), strings.ToLower(want)) {
			t.Errorf("All output missing %q", want)
		}
	}
}
