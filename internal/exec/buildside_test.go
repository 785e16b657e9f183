package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"abivm/internal/storage"
	"abivm/internal/testenv"
)

// unbounded hides its input's row bound, which makes a HashJoin treat
// that side as "size unknown".
type unbounded struct{ Op }

// spy counts the Opens of its input and passes its row bound through.
type spy struct {
	Op
	opens int
}

func (s *spy) Open() error {
	s.opens++
	return s.Op.Open()
}

func (s *spy) RowBound() (int, bool) { return rowBound(s.Op) }

// joinCase is one randomly drawn pair of join inputs.
type joinCase struct {
	lcols, rcols []Col
	left, right  []storage.Row
	lkeys, rkeys []int
}

// drawValue returns a value of the column type from a pool small enough
// that keys collide often; the float pool has both zeros (distinct join
// keys, equal numbers) and the string pool the empty string.
func drawValue(rng *rand.Rand, t storage.Type) storage.Value {
	switch t {
	case storage.TInt:
		return storage.I(int64(rng.Intn(5)) - 1)
	case storage.TFloat:
		return storage.F([]float64{0, math.Copysign(0, -1), 1.5, -2.25, 1e9}[rng.Intn(5)])
	}
	return storage.S([]string{"", "a", "b", "ab", "ba"}[rng.Intn(5)])
}

func drawCase(rng *rand.Rand) joinCase {
	types := []storage.Type{storage.TInt, storage.TFloat, storage.TString}
	nkeys := 1 + rng.Intn(2)
	keyTypes := make([]storage.Type, nkeys)
	for i := range keyTypes {
		keyTypes[i] = types[rng.Intn(len(types))]
	}
	// side draws n rows of (id, key columns..., payload); the id makes
	// every row distinguishable so a wrong emission order shows.
	side := func(alias string, n int) ([]Col, []storage.Row, []int) {
		cols := []Col{{Table: alias, Name: "id", Type: storage.TInt}}
		keys := make([]int, nkeys)
		for i, t := range keyTypes {
			keys[i] = len(cols)
			cols = append(cols, Col{Table: alias, Name: fmt.Sprint("k", i), Type: t})
		}
		cols = append(cols, Col{Table: alias, Name: "pay", Type: storage.TFloat})
		rows := make([]storage.Row, n)
		for i := range rows {
			r := storage.Row{storage.I(int64(i))}
			for _, t := range keyTypes {
				r = append(r, drawValue(rng, t))
			}
			rows[i] = append(r, storage.F(rng.Float64()))
		}
		return cols, rows, keys
	}
	sizes := []int{0, 1, 2, 5, 17, 40}
	var c joinCase
	c.lcols, c.left, c.lkeys = side("l", sizes[rng.Intn(len(sizes))])
	c.rcols, c.right, c.rkeys = side("r", sizes[rng.Intn(len(sizes))])
	return c
}

// nestedLoop is the reference: left-major, right-input order inside one
// left row, keys equal when EncodeKey of them is.
func nestedLoop(c joinCase) []storage.Row {
	var out []storage.Row
	for _, l := range c.left {
		for _, r := range c.right {
			if l.Project(c.lkeys).SameKey(r.Project(c.rkeys)) {
				out = append(out, append(l.Clone(), r...))
			}
		}
	}
	return out
}

// runJoin joins the case with the bound of either side optionally
// hidden, and returns the rows, the work charged, which side's keys the
// table held and how often the stored (right) input was opened.
func runJoin(t *testing.T, c joinCase, hideLeft, hideRight bool) ([]storage.Row, storage.Stats, bool, int) {
	t.Helper()
	var st storage.Stats
	var left Op = NewRowsSource(c.lcols, c.left, &st)
	stored := &spy{Op: NewRowsSource(c.rcols, c.right, &st)}
	var right Op = stored
	if hideLeft {
		left = unbounded{left}
	}
	if hideRight {
		right = unbounded{right}
	}
	j, err := NewHashJoin(left, right, c.lkeys, c.rkeys, &st)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	onLeft := j.onLeft
	var rows []storage.Row
	for {
		r, ok := j.Next()
		if !ok {
			break
		}
		rows = append(rows, r)
	}
	j.Close()
	return rows, st, onLeft, stored.opens
}

func sameRows(a, b []storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].SameKey(b[i]) {
			return false
		}
	}
	return true
}

// TestHashJoinBuildSideEquivalence: whichever input the table is keyed
// on, the join emits the nested-loop row sequence and charges the same
// work units — with one exception, the empty-driving-side rule: keyed on
// a left input that turns out empty, the stored input is never opened
// and nothing at all is charged. Mutation-checked: emitting right-major,
// dropping any one of the three charges, or scanning the stored side for
// an empty batch fails it.
func TestHashJoinBuildSideEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260926))
	skipped := 0
	for i := 0; i < 400; i++ {
		c := drawCase(rng)
		want := nestedLoop(c)
		for _, run := range []struct {
			name                string
			hideLeft, hideRight bool
			onLeft              bool
		}{
			{"keyed on right", true, false, false},
			{"keyed on left", false, true, true},
			{"rule's choice", false, false, len(c.left) <= len(c.right)},
		} {
			rows, stats, mode, opens := runJoin(t, c, run.hideLeft, run.hideRight)
			if mode != run.onLeft {
				t.Fatalf("case %d (%d x %d rows), %s: keyed on left = %v, want %v", i, len(c.left), len(c.right), run.name, mode, run.onLeft)
			}
			if !sameRows(rows, want) {
				t.Fatalf("case %d (%d x %d rows), %s: row sequence differs from nested loop\n got %v\nwant %v", i, len(c.left), len(c.right), run.name, rows, want)
			}
			wantStats := storage.Stats{
				RowsScanned:   uint64(len(c.left) + len(c.right)),
				BatchSetups:   1,
				HashBuildRows: uint64(len(c.right)),
				HashProbeRows: uint64(len(c.left)),
				RowsEmitted:   uint64(len(want)),
			}
			wantOpens := 1
			if mode && len(c.left) == 0 {
				wantStats, wantOpens = storage.Stats{}, 0
				skipped++
			}
			if stats != wantStats {
				t.Fatalf("case %d (%d x %d rows), %s: stats %+v, want %+v", i, len(c.left), len(c.right), run.name, stats, wantStats)
			}
			if opens != wantOpens {
				t.Fatalf("case %d (%d x %d rows), %s: stored input opened %d times, want %d", i, len(c.left), len(c.right), run.name, opens, wantOpens)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no case exercised the empty-driving-side rule")
	}
}

// TestCollectSplit: a signed batch — retractions, then insertions — run
// once through filter, hash join (keyed on either side) and projection
// comes out split where the nested loop over the retractions alone ends,
// for every split point including none and all. An input that hides its
// ordinals is an error, not a guess.
func TestCollectSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(20261002))
	modes := map[bool]int{}
	for i := 0; i < 200; i++ {
		c := drawCase(rng)
		// Drop every third driving row below the join, so ordinals have gaps.
		keep := func(r storage.Row) bool { return r[0].Int()%3 != 0 }
		var kept []storage.Row
		for _, l := range c.left {
			if keep(l) {
				kept = append(kept, l)
			}
		}
		for _, minus := range []int{0, len(c.left) / 2, len(c.left)} {
			src := NewRowsSource(c.lcols, c.left, nil)
			j, err := NewHashJoin(NewFilter(src, keep), NewRowsSource(c.rcols, c.right, nil), c.lkeys, c.rkeys, nil)
			if err != nil {
				t.Fatal(err)
			}
			proj, err := NewProject(j, j.Columns(), identity(len(j.Columns())), nil)
			if err != nil {
				t.Fatal(err)
			}
			rows, split, err := CollectSplit(proj, minus)
			if err != nil {
				t.Fatal(err)
			}
			modes[len(c.left) <= len(c.right)]++
			want := nestedLoop(joinCase{left: kept, right: c.right, lkeys: c.lkeys, rkeys: c.rkeys})
			wantSplit := 0
			for _, r := range want {
				if r[0].Int() < int64(minus) { // the id column is the source position
					wantSplit++
				}
			}
			if !sameRows(rows, want) || split != wantSplit {
				t.Fatalf("case %d (%d x %d rows, minus %d): %d rows split at %d, want %d split at %d", i, len(c.left), len(c.right), minus, len(rows), split, len(want), wantSplit)
			}
		}
	}
	if modes[true] == 0 || modes[false] == 0 {
		t.Fatalf("key sides exercised: %v, want both", modes)
	}
	one := []storage.Row{{storage.I(0)}}
	cols := []Col{{Name: "id", Type: storage.TInt}}
	if _, _, err := CollectSplit(unbounded{NewRowsSource(cols, one, nil)}, 0); err == nil {
		t.Error("CollectSplit accepted an input that reports no source ordinals")
	}
}

// identity returns n scalars, the i-th picking column i.
func identity(n int) []Scalar {
	out := make([]Scalar, n)
	for i := range out {
		out[i] = func(r storage.Row) storage.Value { return r[i] }
	}
	return out
}

// TestRowBounds pins which operators report a bound.
func TestRowBounds(t *testing.T) {
	tbl := suppliers(t)
	scan := NewSeqScan(tbl, "s")
	src := NewRowsSource(scan.Columns(), []storage.Row{{storage.I(9), storage.S("x"), storage.I(1)}}, nil)
	proj, err := NewProject(NewFilter(src, func(storage.Row) bool { return true }), scan.Columns()[:1], []Scalar{func(r storage.Row) storage.Value { return r[0] }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hidden := NewFilter(unbounded{scan}, func(storage.Row) bool { return true })
	for _, tc := range []struct {
		name string
		op   Op
		n    int
		ok   bool
	}{
		{"seq scan", scan, 3, true},
		{"rows source", src, 1, true},
		{"project over filter over source", proj, 1, true},
		{"filter over unknown", hidden, 0, false},
	} {
		if n, ok := rowBound(tc.op); n != tc.n || ok != tc.ok {
			t.Errorf("%s: bound (%d, %v), want (%d, %v)", tc.name, n, ok, tc.n, tc.ok)
		}
	}
	src.Reset(nil)
	if n, ok := rowBound(proj); n != 0 || !ok {
		t.Errorf("after Reset(nil): bound (%d, %v), want (0, true)", n, ok)
	}
}

// failOpen is an input whose Open fails.
type failOpen struct{ Op }

func (failOpen) Open() error { return fmt.Errorf("open failed") }

// TestHashJoinReleasesRows: a join kept for reuse holds no input rows
// after Close, nor after an Open that failed half-way, nor after a run
// the empty-driving-side rule cut short.
func TestHashJoinReleasesRows(t *testing.T) {
	held := func(j *HashJoin) bool {
		return j.slots != nil || j.buckets != nil || j.leftRows != nil || j.curLeft != nil || j.matches != nil
	}
	rng := rand.New(rand.NewSource(3))
	c := drawCase(rng)
	for len(c.left) == 0 || len(c.right) == 0 {
		c = drawCase(rng)
	}
	left := NewRowsSource(c.lcols, c.left, nil)
	right := NewRowsSource(c.rcols, c.right, nil)
	j, err := NewHashJoin(unbounded{left}, right, c.lkeys, c.rkeys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(j); err != nil {
		t.Fatal(err)
	}
	if held(j) {
		t.Errorf("join holds rows after Close: %+v", j)
	}
	// Keyed on the right, the left input opens last, after the table is
	// filled; keyed on the left, the right one does.
	for _, j := range []*HashJoin{
		{left: failOpen{left}, right: right, leftKeys: c.lkeys, rightKeys: c.rkeys},
		{left: left, right: failOpen{right}, leftKeys: c.lkeys, rightKeys: c.rkeys},
	} {
		if err := j.Open(); err == nil {
			t.Fatal("Open succeeded over a failing input")
		}
		if held(j) {
			t.Errorf("join holds rows after a failed Open: %+v", j)
		}
	}
	// Keyed on a left input no row of which survives, the stored input is
	// not opened at all, so its failing Open goes unseen: the join opens,
	// emits nothing, charges nothing and holds nothing. The same join
	// fails as above once a left row gets through.
	var st storage.Stats
	pass := false
	j = &HashJoin{
		left:     NewFilter(left, func(storage.Row) bool { return pass }),
		right:    failOpen{right},
		leftKeys: c.lkeys, rightKeys: c.rkeys,
		stats: &st,
	}
	rows, err := Collect(j)
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty driving side over a failing stored input: %d rows, err %v; want none and nil", len(rows), err)
	}
	if st.BatchSetups != 0 || st.HashBuildRows != 0 {
		t.Errorf("empty driving side charged %+v, want no setup and no build rows", st)
	}
	if held(j) {
		t.Errorf("join holds rows after an empty run: %+v", j)
	}
	pass = true
	if _, err := Collect(j); err == nil {
		t.Fatal("Open succeeded over a failing stored input with a driving row to join")
	}
	if held(j) {
		t.Errorf("join holds rows after a failed Open: %+v", j)
	}
}

// TestHashJoinScanAllocsIndependentOfStoredRows: streaming stored rows
// past a batch-keyed table allocates nothing per row — a 4-row batch
// against 1,000 and against 10,000 stored rows with the same matches
// costs the same number of allocations.
func TestHashJoinScanAllocsIndependentOfStoredRows(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	cols := []storage.Column{{Name: "id", Type: storage.TInt}, {Name: "k", Type: storage.TString}}
	batch := []storage.Row{
		{storage.I(0), storage.S("k0")}, {storage.I(1), storage.S("k1")},
		{storage.I(2), storage.S("k2")}, {storage.I(3), storage.S("none")},
	}
	allocs := func(stored int) (float64, int) {
		rows := make([]storage.Row, stored)
		for i := range rows {
			// The first 30 rows carry the batch's keys; the rest match nothing.
			k := fmt.Sprint("miss", i)
			if i < 30 {
				k = fmt.Sprint("k", i%3)
			}
			rows[i] = storage.Row{storage.I(int64(i)), storage.S(k)}
		}
		tbl := mkTable(t, "stored", cols, "id", rows)
		scan := NewSeqScan(tbl, "t")
		j, err := NewHashJoin(NewRowsSource(scan.Columns(), batch, nil), scan, []int{1}, []int{1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var n int
		a := testing.AllocsPerRun(20, func() {
			out, err := Collect(j)
			if err != nil {
				t.Fatal(err)
			}
			n = len(out)
		})
		return a, n
	}
	small, nSmall := allocs(1000)
	large, nLarge := allocs(10000)
	t.Logf("allocs per join: %.0f against 1,000 stored rows, %.0f against 10,000 (%d rows out)", small, large, nSmall)
	if nSmall != 30 || nLarge != 30 {
		t.Fatalf("joins emitted %d and %d rows, want 30 each", nSmall, nLarge)
	}
	if small != large {
		t.Errorf("allocations grew with the stored side: %.0f at 1,000 rows, %.0f at 10,000", small, large)
	}
}

// TestIndexLoopJoinProbeAllocs: a prepared index-loop join, once its
// probe buffer is warm, allocates the rows it emits and nothing else —
// the probe key is encoded on the stack, the index bucket is read in
// place and the matches land in the reused buffer.
func TestIndexLoopJoinProbeAllocs(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	cols := []storage.Column{{Name: "id", Type: storage.TInt}, {Name: "k", Type: storage.TString}}
	rows := make([]storage.Row, 400)
	for i := range rows {
		rows[i] = storage.Row{storage.I(int64(i)), storage.S(fmt.Sprint("k", i%8))}
	}
	tbl := mkTable(t, "stored", cols, "id", rows)
	if err := tbl.CreateIndex("by_k", storage.HashIndex, "k"); err != nil {
		t.Fatal(err)
	}
	batch := []storage.Row{{storage.I(-1), storage.S("k3")}, {storage.I(-2), storage.S("nowhere")}, {storage.I(-3), storage.S("k5")}}
	left := NewRowsSource(NewSeqScan(tbl, "b").Columns(), batch, nil)
	j, err := NewIndexLoopJoin(left, tbl, "t", tbl.IndexOn("k"), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	run := func() {
		if err := j.Open(); err != nil {
			t.Fatal(err)
		}
		for emitted = 0; ; emitted++ {
			if _, ok := j.Next(); !ok {
				break
			}
		}
		j.Close()
	}
	if a := testing.AllocsPerRun(20, run); emitted != 100 || a != float64(emitted) {
		t.Errorf("a run emitting %d rows allocated %.0f times, want 100 rows and one allocation each", emitted, a)
	}
}
