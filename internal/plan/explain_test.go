package plan

import (
	"strings"
	"testing"

	"abivm/internal/sql"
)

func TestExplainPaperView(t *testing.T) {
	db := testDB(t)
	sel, err := sql.Parse(`
		SELECT MIN(PS.supplycost)
		FROM partsupp AS PS, supplier AS S, nation AS N, region AS R
		WHERE S.suppkey = PS.suppkey
		AND S.nationkey = N.nationkey
		AND N.regionkey = R.regionkey
		AND R.name = 'MIDDLE EAST'`)
	if err != nil {
		t.Fatal(err)
	}
	op, err := Compile(sel, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := Explain(op)
	for _, want := range []string{"Project", "HashAgg", "aggs=[MIN]", "SeqScan"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	// The supplier and nation joins go through their indexes.
	if !strings.Contains(out, "IndexLoopJoin") {
		t.Errorf("no index join in plan:\n%s", out)
	}
}

func TestExplainHashJoinAndFilter(t *testing.T) {
	db := testDB(t)
	sel, err := sql.Parse(`SELECT r.name FROM region AS r, nation AS n
		WHERE r.regionkey = n.regionkey AND n.nationkey > 1`)
	if err != nil {
		t.Fatal(err)
	}
	op, err := Compile(sel, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := Explain(op)
	if !strings.Contains(out, "Filter") {
		t.Errorf("missing Filter:\n%s", out)
	}
}
