package viewc

import (
	"fmt"
	"strings"
	"testing"

	"abivm/internal/pubsub"
	"abivm/internal/storage"
)

// demoCatalog covers the three compiler-acceptance shapes over the demo
// stations/sales schema: filter-only, two-table join, join + group-by.
const demoCatalog = `
CREATE MATERIALIZED VIEW big_sales QOS 25 AS
SELECT s.salekey, s.amount FROM sales AS s WHERE s.amount > 10;

CREATE MATERIALIZED VIEW east_sales QOS 30 AS
SELECT s.salekey, st.region FROM sales AS s, stations AS st
WHERE s.station = st.stationkey AND st.region = 'EAST';

CREATE MATERIALIZED VIEW region_totals QOS 40 AS
SELECT st.region, SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st
WHERE s.station = st.stationkey GROUP BY st.region;
`

func demoDB(t *testing.T) *storage.DB {
	t.Helper()
	db, err := pubsub.DemoDB(pubsub.DefaultWorkloadSpec())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCompileCatalogEndToEnd(t *testing.T) {
	db := demoDB(t)
	views, err := CompileCatalog(db, demoCatalog, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 3 {
		t.Fatalf("compiled %d views, want 3", len(views))
	}
	wantAliases := map[string]int{"big_sales": 1, "east_sales": 2, "region_totals": 2}
	for _, cv := range views {
		if got := len(cv.Calibrations); got != wantAliases[cv.Name] {
			t.Errorf("%s: %d calibrated aliases, want %d", cv.Name, got, wantAliases[cv.Name])
		}
		if cv.Model.N() != len(cv.Calibrations) {
			t.Errorf("%s: model N %d != calibrations %d", cv.Name, cv.Model.N(), len(cv.Calibrations))
		}
		// The compiled subscription must be accepted by a broker as-is.
		b := pubsub.NewBroker(demoDB(t))
		if err := b.Subscribe(cv.Subscription()); err != nil {
			t.Errorf("%s: Subscribe: %v", cv.Name, err)
		}
	}
	if views[2].QoS != 40 || !views[2].Plan.Aggregate {
		t.Errorf("region_totals: QoS %g aggregate %v", views[2].QoS, views[2].Plan.Aggregate)
	}
}

// TestExplainGolden pins the structural content of the EXPLAIN IVM
// report for the three acceptance shapes.
func TestExplainGolden(t *testing.T) {
	db := demoDB(t)
	views, err := CompileCatalog(db, demoCatalog, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string][]string{
		"big_sales": {
			`EXPLAIN IVM view "big_sales" (QoS 25, fit linear, seed 7)`,
			"view:  SELECT s.salekey, s.amount FROM sales AS s WHERE s.amount > 10",
			"state: bag of view rows with multiplicities",
			"Δs (table sales):",
			"s (table sales): cost(k) = ",
			"max |residual| = ",
		},
		"east_sales": {
			`EXPLAIN IVM view "east_sales" (QoS 30, fit linear, seed 7)`,
			"Δs (table sales):",
			"Δst (table stations):",
			"st (table stations): cost(k) = ",
		},
		"region_totals": {
			`EXPLAIN IVM view "region_totals" (QoS 40, fit linear, seed 7)`,
			"delta: SELECT st.region, s.amount, 1 FROM sales AS s, stations AS st",
			"state: groups (group cols 1, aggregates SUM(s.amount) COUNT(*))",
			"Δs (table sales):",
			"Δst (table stations):",
		},
	}
	for _, cv := range views {
		out, err := cv.Explain()
		if err != nil {
			t.Fatalf("%s: %v", cv.Name, err)
		}
		for _, want := range wants[cv.Name] {
			if !strings.Contains(out, want) {
				t.Errorf("%s: report missing %q:\n%s", cv.Name, want, out)
			}
		}
	}
}

// TestCompileDeterminism: two compiles with the same seed produce
// byte-identical reports (and therefore identical fitted models).
func TestCompileDeterminism(t *testing.T) {
	render := func() string {
		views, err := CompileCatalog(demoDB(t), demoCatalog, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, cv := range views {
			out, err := cv.Explain()
			if err != nil {
				t.Fatal(err)
			}
			sb.WriteString(out)
		}
		return sb.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatal("same seed produced different compiled output")
	}
}

func TestCompilePiecewiseFit(t *testing.T) {
	cv, err := Compile(demoDB(t), "SELECT s.salekey FROM sales AS s", Options{Name: "pw", Fit: "piecewise", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, err := cv.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "piecewise-linear knots (0,0)") {
		t.Errorf("piecewise report missing knots: %s", out)
	}
	// The fit reproduces the samples up to monotone clamping, which only
	// raises the curve: residuals (measured - fitted) are never positive.
	for _, cal := range cv.Calibrations {
		for i, r := range cal.Residuals {
			if r > 1e-9 {
				t.Errorf("%s: k=%d: fitted below measured by %g", cal.Alias, cal.Measurement.K[i], r)
			}
		}
	}
}

// TestCompileDiagnostics pins the `view "x": position N: ...` format and
// the collect-all behavior of CompileCatalog.
func TestCompileDiagnostics(t *testing.T) {
	db := demoDB(t)
	_, err := Compile(db, "SELECT s.salekey FROM sales AS s ORDER BY s.salekey", Options{Name: "bad"})
	if err == nil {
		t.Fatal("ORDER BY view compiled")
	}
	want := fmt.Sprintf("view %q: position %d: ORDER BY is not maintainable", "bad", strings.Index("SELECT s.salekey FROM sales AS s ORDER BY s.salekey", "ORDER")+1)
	if err.Error() != want {
		t.Errorf("diagnostic = %q, want %q", err.Error(), want)
	}

	catalog := `
CREATE MATERIALIZED VIEW ok QOS 10 AS SELECT s.salekey FROM sales AS s;
CREATE MATERIALIZED VIEW lim QOS 10 AS SELECT s.salekey FROM sales AS s LIMIT 3;
CREATE MATERIALIZED VIEW ord QOS 10 AS SELECT s.salekey FROM sales AS s ORDER BY s.salekey;
`
	views, err := CompileCatalog(db, catalog, Options{})
	if err == nil {
		t.Fatal("broken catalog compiled clean")
	}
	if len(views) != 1 || views[0].Name != "ok" {
		t.Errorf("healthy views = %v", views)
	}
	for _, want := range []string{`view "lim": position `, "LIMIT is not maintainable", `view "ord": position `, "ORDER BY is not maintainable"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined diagnostics missing %q: %v", want, err)
		}
	}
}

// TestCompileDataflowSignatures: the -dataflow compile surfaces the
// canonical operator signatures, and two views over the same join spine
// agree on every one of them and differ only in the projection their
// sinks apply — the compile-time prediction of what the shared runtime
// will intern.
func TestCompileDataflowSignatures(t *testing.T) {
	db := demoDB(t)
	qa := "SELECT st.region, SUM(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region"
	qb := "SELECT s.station, COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY s.station"
	a, err := Compile(db, qa, Options{Name: "a", Dataflow: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bv, err := Compile(db, qb, Options{Name: "b", Dataflow: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dataflow operators", "scan(sales)", "scan(stations)", "join(",
		"on=[sales.station=stations.stationkey])\n  sink: project [stations.region, sales.amount]\ndataflow arrangements",
		"  arrange(scan(sales), [sales.station])\n", "  arrange(scan(stations), [stations.stationkey])\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("dataflow report missing %q:\n%s", want, out)
		}
	}
	sa, sinkA, err := a.OperatorSignatures()
	if err != nil {
		t.Fatal(err)
	}
	sb, sinkB, err := bv.OperatorSignatures()
	if err != nil {
		t.Fatal(err)
	}
	if len(sa) != 3 || len(sb) != 3 {
		t.Fatalf("signature counts %d/%d, want 3/3", len(sa), len(sb))
	}
	// Post-order: every operator coincides, the join on top included; what
	// differs is outside the graph.
	for i := range sa {
		if sa[i] != sb[i] {
			t.Errorf("spine signature %d differs: %q vs %q", i, sa[i], sb[i])
		}
	}
	if !strings.HasPrefix(sa[2], "join(") {
		t.Errorf("top operator %q is not the join", sa[2])
	}
	if sinkA == sinkB || sinkB != "project [sales.station, 1]" {
		t.Errorf("sink projections %q / %q, want distinct canonical SELECT lists", sinkA, sinkB)
	}
	// Without the option the section stays out of the report.
	plain, err := Compile(db, qa, Options{Name: "p", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pout, err := plain.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(pout, "dataflow operators") {
		t.Error("plain compile emitted the dataflow section")
	}
}

func TestCompileUnknownTable(t *testing.T) {
	if _, err := Compile(demoDB(t), "SELECT x.a FROM nope AS x", Options{Name: "ghost"}); err == nil || !strings.Contains(err.Error(), `view "ghost"`) {
		t.Errorf("unknown table: err = %v", err)
	}
}

// TestCompileDoesNotMutateTargetDB: compilation calibrates in a sandbox;
// the compile-target database stays untouched.
func TestCompileDoesNotMutateTargetDB(t *testing.T) {
	db := demoDB(t)
	sizeOf := func() map[string]int {
		out := map[string]int{}
		for _, n := range db.TableNames() {
			out[n] = db.MustTable(n).Len()
		}
		return out
	}
	before := sizeOf()
	salesBefore := fmt.Sprintf("%v", collect(db, "sales"))
	if _, err := CompileCatalog(db, demoCatalog, Options{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	after := sizeOf()
	for n, want := range before {
		if after[n] != want {
			t.Errorf("table %s: %d rows after compile, want %d", n, after[n], want)
		}
	}
	if got := fmt.Sprintf("%v", collect(db, "sales")); got != salesBefore {
		t.Error("compilation mutated sales rows")
	}
}

func collect(db *storage.DB, table string) []storage.Row {
	var out []storage.Row
	db.MustTable(table).Scan(func(r storage.Row) bool { out = append(out, r); return true })
	return out
}
