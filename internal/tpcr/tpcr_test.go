package tpcr

import (
	"math"
	"strings"
	"testing"

	"abivm/internal/exec"
	"abivm/internal/ivm"
	"abivm/internal/plan"
	"abivm/internal/storage"
)

func genDB(t *testing.T, cfg Config) *storage.DB {
	t.Helper()
	db := storage.NewDB()
	if err := Generate(db, cfg); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestGenerateSizes(t *testing.T) {
	cfg := Config{ScaleFactor: 0.002, Seed: 1}
	db := genDB(t, cfg)
	nSupp, nPart, nPS := cfg.Sizes()
	if got := db.MustTable("supplier").Len(); got != nSupp {
		t.Errorf("supplier rows = %d, want %d", got, nSupp)
	}
	if got := db.MustTable("part").Len(); got != nPart {
		t.Errorf("part rows = %d, want %d", got, nPart)
	}
	if got := db.MustTable("partsupp").Len(); got != nPS {
		t.Errorf("partsupp rows = %d, want %d", got, nPS)
	}
	if got := db.MustTable("region").Len(); got != 5 {
		t.Errorf("region rows = %d", got)
	}
	if got := db.MustTable("nation").Len(); got != 25 {
		t.Errorf("nation rows = %d", got)
	}
	// PartSupp:Supplier ratio is 80:1 as in the paper's TPC-R setup.
	if nPS != 80*nSupp {
		t.Errorf("ratio %d:%d, want 80:1", nPS, nSupp)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{ScaleFactor: 0.001, Seed: 7}
	a := genDB(t, cfg)
	b := genDB(t, cfg)
	at := a.MustTable("partsupp")
	bt := b.MustTable("partsupp")
	mismatch := false
	cur := bt.NewCursor()
	at.Scan(func(r storage.Row) bool {
		rb, ok := cur.Next()
		if !ok || storage.EncodeKey(r...) != storage.EncodeKey(rb...) {
			mismatch = true
			return false
		}
		return true
	})
	if mismatch {
		t.Fatal("same seed produced different databases")
	}
}

// TestGenerateValidation: a scale that is not a positive finite number,
// or whose supplier count cannot give a part four distinct suppliers, is
// refused before any table exists, with an error naming the scale and
// the count.
func TestGenerateValidation(t *testing.T) {
	for _, tc := range []struct {
		scale float64
		ok    bool
		want  string
	}{
		{0, false, "positive finite"},
		{-1, false, "positive finite"},
		{math.NaN(), false, "NaN"},
		{math.Inf(1), false, "+Inf"},
		{0.0004, false, "4 suppliers"},
		{0.0009, false, "9 suppliers"},
		{0.00121, false, "12 suppliers"},
		{0.0005, true, ""},
		{0.0012, true, ""},
	} {
		db := storage.NewDB()
		err := Generate(db, Config{ScaleFactor: tc.scale, Seed: 1})
		switch {
		case tc.ok && err != nil:
			t.Errorf("scale %g: %v", tc.scale, err)
		case !tc.ok && err == nil:
			t.Errorf("scale %g accepted", tc.scale)
		case !tc.ok && !strings.Contains(err.Error(), tc.want):
			t.Errorf("scale %g: error %q does not name %q", tc.scale, err, tc.want)
		case !tc.ok && len(db.TableNames()) != 0:
			t.Errorf("scale %g: refused after creating %v", tc.scale, db.TableNames())
		}
	}
}

func TestIndexConfiguration(t *testing.T) {
	db := genDB(t, Config{ScaleFactor: 0.001, Seed: 1, SupplierSuppkeyIndex: true, PartSuppSuppkeyIndex: true})
	if db.MustTable("supplier").IndexOn("suppkey") == nil {
		t.Error("supplier suppkey index missing")
	}
	if db.MustTable("partsupp").IndexOn("suppkey") == nil {
		t.Error("partsupp suppkey index missing")
	}
	db2 := genDB(t, Config{ScaleFactor: 0.001, Seed: 1})
	if db2.MustTable("supplier").IndexOn("suppkey") != nil {
		t.Error("unexpected supplier index")
	}
	if db2.MustTable("partsupp").IndexOn("suppkey") != nil {
		t.Error("unexpected partsupp index")
	}
}

func TestNationRegionMapping(t *testing.T) {
	db := genDB(t, Config{ScaleFactor: 0.001, Seed: 1})
	// Exactly 5 nations per region, as in TPC-R.
	counts := map[int64]int{}
	db.MustTable("nation").Scan(func(r storage.Row) bool {
		counts[r[2].Int()]++
		return true
	})
	for rk := int64(0); rk < 5; rk++ {
		if counts[rk] != 5 {
			t.Errorf("region %d has %d nations, want 5", rk, counts[rk])
		}
	}
}

// apply writes mod to its live table with ivm.ApplyLive and queues it on
// m, as the broker does.
func apply(t *testing.T, db *storage.DB, m *ivm.Maintainer, mod ivm.Mod) {
	t.Helper()
	for _, src := range m.Plan().Sources {
		if src.Alias == mod.Alias {
			if err := ivm.ApplyLive(db, src.Table, mod, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.ApplyDeferred(mod); err != nil {
		t.Fatal(err)
	}
}

// recompute evaluates the view query from scratch over db's live tables
// through internal/exec — the ground truth a maintainer's content must
// match once nothing is pending.
func recompute(t *testing.T, db *storage.DB, query string) []storage.Row {
	t.Helper()
	p, err := ivm.PlanView(query)
	if err != nil {
		t.Fatal(err)
	}
	var scratch storage.Stats
	op, err := plan.Compile(p.View, nil, &plan.Options{Resolve: db.Table, Stats: &scratch})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestPaperViewOverGeneratedData(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ScaleFactor = 0.002
	db := genDB(t, cfg)
	m, err := ivm.New(db, PaperView)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Result()
	if len(res) != 1 {
		t.Fatalf("result rows = %d", len(res))
	}
	if res[0][0].Float() <= 0 {
		t.Fatalf("MIN = %v, want a positive supply cost", res[0][0])
	}
}

func TestUpdateGenProducesValidMods(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ScaleFactor = 0.002
	db := genDB(t, cfg)
	m, err := ivm.New(db, PaperView)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewUpdateGen(db, cfg, 99)
	for i := 0; i < 50; i++ {
		apply(t, db, m, gen.PartSuppUpdate())
		apply(t, db, m, gen.SupplierUpdate())
	}
	if p := m.Pending(); p[0] != 50 || p[1] != 50 {
		t.Fatalf("pending = %v", p)
	}
	if err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	fresh := recompute(t, db, PaperView)
	got := m.Result()
	if len(got) != 1 || len(fresh) != 1 || !storage.Equal(got[0][0], fresh[0][0]) {
		t.Fatalf("incremental %v vs fresh %v", got, fresh)
	}
}

func TestUpdateGenDeterministic(t *testing.T) {
	cfg := Config{ScaleFactor: 0.001, Seed: 1}
	db := genDB(t, cfg)
	g1 := NewUpdateGen(db, cfg, 5)
	g2 := NewUpdateGen(db, cfg, 5)
	for i := 0; i < 20; i++ {
		a, b := g1.PartSuppUpdate(), g2.PartSuppUpdate()
		if storage.EncodeKey(a.Key...) != storage.EncodeKey(b.Key...) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRegionGroupViewMaintainedUnderUpdates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ScaleFactor = 0.002
	db := genDB(t, cfg)
	m, err := ivm.New(db, RegionGroupView)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Result()); got != 5 {
		t.Fatalf("initial groups = %d, want 5 regions", got)
	}
	gen := NewUpdateGen(db, cfg, 42)
	for i := 0; i < 120; i++ {
		apply(t, db, m, gen.PartSuppUpdate())
		apply(t, db, m, gen.SupplierUpdate())
		if i%30 == 29 {
			if err := m.Refresh(); err != nil {
				t.Fatal(err)
			}
			fresh := recompute(t, db, RegionGroupView)
			got := m.Result()
			if len(got) != len(fresh) {
				t.Fatalf("step %d: %d groups vs fresh %d", i, len(got), len(fresh))
			}
			for g := range got {
				for c := range got[g] {
					if !valuesClose(got[g][c], fresh[g][c]) {
						t.Fatalf("step %d: group %d col %d: %v vs %v", i, g, c, got[g], fresh[g])
					}
				}
			}
		}
	}
}

// valuesClose compares values exactly except for floats, which may drift
// by accumulated rounding when a SUM is maintained via additions and
// retractions rather than recomputed.
func valuesClose(a, b storage.Value) bool {
	if a.T == storage.TFloat || b.T == storage.TFloat {
		av, bv := a.Float(), b.Float()
		diff := av - bv
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if av > scale {
			scale = av
		}
		if -av > scale {
			scale = -av
		}
		return diff <= 1e-9*scale
	}
	return storage.Compare(a, b) == 0
}

func TestJoinViewParsesAndRuns(t *testing.T) {
	cfg := Config{ScaleFactor: 0.001, Seed: 1, PartSuppSuppkeyIndex: true}
	db := genDB(t, cfg)
	m, err := ivm.New(db, JoinView)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Result()
	_, _, nPS := cfg.Sizes()
	if len(res) != 1 || res[0][0].Int() != int64(nPS) {
		t.Fatalf("COUNT = %v, want %d", res, nPS)
	}
}
