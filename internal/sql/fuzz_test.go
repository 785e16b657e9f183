package sql

import (
	"math/rand"
	"os"
	"testing"
)

// FuzzParse feeds arbitrary text to both entry points of the SQL front
// end — Parse (one SELECT) and ParseCatalog (CREATE MATERIALIZED VIEW …
// QOS … AS SELECT statements) — which read text the program did not
// write: a views.sql file, a `compile` argument. Whatever the input, they
// must return a value or an error, never panic; and what they accept
// must print without panicking either. Seeds: the example catalog, the
// catalog tests' corpus (valid and rejected statements), and rendered
// random ASTs from the round-trip tests.
func FuzzParse(f *testing.F) {
	example, err := os.ReadFile("../../examples/views.sql")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(example))
	f.Add(testCatalog)
	for _, src := range []string{
		"CREATE VIEW x QOS 1 AS SELECT a FROM t",
		"CREATE MATERIALIZED VIEW 5 QOS 1 AS SELECT a FROM t",
		"CREATE MATERIALIZED VIEW x QOS abc AS SELECT a FROM t",
		"CREATE MATERIALIZED VIEW x QOS -3 AS SELECT a FROM t",
		"CREATE MATERIALIZED VIEW x QOS 1 AS SELECT a FROM t; CREATE MATERIALIZED VIEW x QOS 2 AS SELECT b FROM u",
		"SELECT SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region = 'EAST'",
		"SELECT a FROM t ORDER BY a DESC LIMIT 3",
		"SELECT 'unterminated FROM t",
		"SELECT (a + 1) * -2.5e3 FROM t WHERE a >= 1 AND b <> 'x' -- trailing",
		"", ";", "SELECT", "SELECT * FROM",
	} {
		f.Add(src)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		f.Add(randomSelect(rng).String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		if sel, err := Parse(src); err == nil {
			if sel == nil {
				t.Fatal("Parse returned neither a query nor an error")
			}
			_ = sel.String()
		}
		cat, err := ParseCatalog(src)
		if err != nil {
			return
		}
		for _, v := range cat {
			if v.Name == "" || !(v.QoS > 0) || v.Query == nil {
				t.Fatalf("accepted an incomplete view %+v from %q", v, src)
			}
			_ = v.String()
		}
	})
}
