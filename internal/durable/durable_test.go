package durable

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// liveDB builds the paper's four-table schema with small seed data —
// the same rig the ivm tests use, rebuilt here because the durable
// layer exercises full maintainer recovery, not just file plumbing.
func liveDB(t *testing.T) *storage.DB {
	t.Helper()
	db := storage.NewDB()
	mk := func(name string, cols []storage.Column, key string) *storage.Table {
		schema, err := storage.NewSchema(name, cols, key)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable(schema)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	region := mk("region", []storage.Column{
		{Name: "regionkey", Type: storage.TInt},
		{Name: "rname", Type: storage.TString},
	}, "regionkey")
	for i, n := range []string{"MIDDLE EAST", "EUROPE"} {
		if err := region.Insert(storage.Row{storage.I(int64(i)), storage.S(n)}); err != nil {
			t.Fatal(err)
		}
	}
	nation := mk("nation", []storage.Column{
		{Name: "nationkey", Type: storage.TInt},
		{Name: "nname", Type: storage.TString},
		{Name: "regionkey", Type: storage.TInt},
	}, "nationkey")
	for i := 0; i < 4; i++ {
		if err := nation.Insert(storage.Row{storage.I(int64(i)), storage.S("N"), storage.I(int64(i % 2))}); err != nil {
			t.Fatal(err)
		}
	}
	supplier := mk("supplier", []storage.Column{
		{Name: "suppkey", Type: storage.TInt},
		{Name: "sname", Type: storage.TString},
		{Name: "nationkey", Type: storage.TInt},
	}, "suppkey")
	for i := 0; i < 6; i++ {
		if err := supplier.Insert(storage.Row{storage.I(int64(i)), storage.S("S"), storage.I(int64(i % 4))}); err != nil {
			t.Fatal(err)
		}
	}
	partsupp := mk("partsupp", []storage.Column{
		{Name: "partkey", Type: storage.TInt},
		{Name: "suppkey", Type: storage.TInt},
		{Name: "supplycost", Type: storage.TFloat},
	}, "partkey")
	for i := 0; i < 12; i++ {
		if err := partsupp.Insert(storage.Row{storage.I(int64(i)), storage.I(int64(i % 6)), storage.F(float64(100 + i))}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

const paperView = `
	SELECT MIN(PS.supplycost)
	FROM partsupp AS PS, supplier AS S, nation AS N, region AS R
	WHERE S.suppkey = PS.suppkey
	AND S.nationkey = N.nationkey
	AND N.regionkey = R.regionkey
	AND R.rname = 'MIDDLE EAST'`

func rowsKey(rows []storage.Row) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = storage.EncodeKey(r...)
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// rig is a broker-shaped wiring of one maintainer over a durable store
// (see build).
type rig struct {
	db    *storage.DB
	fs    FS
	st    *Store
	m     *ivm.Maintainer
	wal   *ivm.WAL
	chain *ivm.CheckpointChain
	depth int
}

func newRig(t *testing.T, fsys FS, depth int) *rig {
	t.Helper()
	db := liveDB(t)
	st, err := NewStore(fsys, "sub")
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{db: db, fs: fsys, st: st, depth: depth}
	r.m, r.wal, r.chain = build(t, db, st, depth)
	return r
}

// build wires a fresh maintainer over the live tables and st: WAL sink
// and chain store attached before any logged work, base checkpoint
// seeding the directory — the order the classic pubsub engine uses at
// Subscribe and after a fallback recovery.
func build(t *testing.T, db *storage.DB, st *Store, depth int) (*ivm.Maintainer, *ivm.WAL, *ivm.CheckpointChain) {
	t.Helper()
	m, err := ivm.New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	m.SetNamespace(st.ns)
	wal := ivm.NewWAL()
	m.AttachWAL(wal)
	chain := ivm.NewCheckpointChain(depth)
	wal.SetSink(st)
	chain.SetStore(st)
	if err := chain.Checkpoint(m); err != nil {
		t.Fatal(err)
	}
	return m, wal, chain
}

// apply feeds n partsupp inserts with keys starting at base.
func (r *rig) apply(t *testing.T, base, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := int64(base + i)
		mod := ivm.Insert("PS", storage.Row{storage.I(k), storage.I(k % 6), storage.F(float64(50 + k))})
		if err := r.m.Apply(mod); err != nil {
			t.Fatal(err)
		}
	}
}

func (r *rig) drain(t *testing.T, alias string, k int) {
	t.Helper()
	if err := r.m.ProcessBatch(alias, k); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) checkpoint(t *testing.T) {
	t.Helper()
	if err := r.chain.Checkpoint(r.m); err != nil {
		t.Fatal(err)
	}
	if err := r.wal.TruncateThrough(r.chain.TipLSN()); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) sync(t *testing.T) {
	t.Helper()
	if err := r.st.Sync(); err != nil {
		t.Fatal(err)
	}
}

// state captures everything recovery must reproduce byte-for-byte.
type rigState struct {
	pending string
	view    string
	lastLSN uint64
	walLen  int
	tipLSN  uint64
}

func (r *rig) snapshot() rigState {
	return rigState{
		pending: intsKey(r.m.Pending()),
		view:    rowsKey(r.m.Result()),
		lastLSN: r.wal.LastLSN(),
		walLen:  r.wal.Len(),
		tipLSN:  r.chain.TipLSN(),
	}
}

func intsKey(v []int) string {
	parts := make([]string, len(v))
	for i, n := range v {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

// crash simulates losing the maintainer, WAL, and chain (the store,
// like the broker-owned WAL it replaces, survives) and recovers from
// disk — on the fallback rung by building afresh over the reset store.
func (r *rig) crash(t *testing.T) *Recovery {
	t.Helper()
	rec, err := r.st.Recover(r.db, paperView, r.depth, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Fallback {
		if rec.M != nil || rec.WAL != nil || rec.Chain != nil {
			t.Fatal("fallback recovery returned a maintainer")
		}
		r.m, r.wal, r.chain = build(t, r.db, r.st, r.depth)
	} else {
		r.m, r.wal, r.chain = rec.M, rec.WAL, rec.Chain
	}
	return rec
}

// assertExact crashes and verifies byte-identical recovery.
func (r *rig) assertExact(t *testing.T, wantEvents bool) *Recovery {
	t.Helper()
	want := r.snapshot()
	rec := r.crash(t)
	if rec.Fallback {
		t.Fatalf("recovery fell back: %v", rec.Corruptions)
	}
	if wantEvents && len(rec.Corruptions) == 0 {
		t.Fatal("expected corruption events, got none")
	}
	if !wantEvents && len(rec.Corruptions) > 0 {
		t.Fatalf("unexpected corruption events: %v", rec.Corruptions)
	}
	if got := r.snapshot(); got != want {
		t.Fatalf("recovered state %+v, want %+v", got, want)
	}
	return rec
}

func TestStoreRecoverExactCleanDisk(t *testing.T) {
	r := newRig(t, NewMemFS(), 4)
	r.apply(t, 100, 6)
	r.drain(t, "PS", 2)
	r.sync(t)
	r.assertExact(t, false)

	// Keep working after recovery: more arrivals, a delta checkpoint,
	// un-checkpointed tail, another crash.
	r.apply(t, 200, 4)
	r.drain(t, "PS", 3)
	r.checkpoint(t)
	r.apply(t, 300, 2)
	r.sync(t)
	r.assertExact(t, false)
}

func TestStoreRecoverAcrossCheckpointsAndTruncation(t *testing.T) {
	r := newRig(t, NewMemFS(), 2)
	for round := 0; round < 6; round++ {
		r.apply(t, 100*(round+1), 3)
		r.drain(t, "PS", 2)
		r.checkpoint(t)
	}
	r.apply(t, 900, 2)
	r.sync(t)
	r.assertExact(t, false)
	if err := r.m.Refresh(); err != nil {
		t.Fatal(err)
	}
	fresh, err := r.m.RecomputeFresh()
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(r.m.Result()) != rowsKey(fresh) {
		t.Fatal("recovered maintainer diverged from ground truth")
	}
}

// corruptFile flips one byte of a stored file at off (negative counts
// from the end).
func corruptFile(t *testing.T, fsys FS, name string, off int) {
	t.Helper()
	data, err := fsys.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += len(data)
	}
	data[off] ^= 0x40
	if err := fsys.WriteFile(name, data); err != nil {
		t.Fatal(err)
	}
}

// findFile returns the stored file names matching a prefix.
func findFiles(t *testing.T, fsys FS, prefix string) []string {
	t.Helper()
	names, err := fsys.List()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			out = append(out, n)
		}
	}
	return out
}

// deltaRig builds a store whose disk holds a base (lsn 3), one delta
// segment, and a retained WAL segment spanning the delta's range — the
// setup where the base-LSN retention floor matters.
func deltaRig(t *testing.T) *rig {
	r := newRig(t, NewMemFS(), 4)
	r.apply(t, 100, 3)
	r.checkpoint(t) // first delta checkpoint after the seed base
	r.apply(t, 200, 3)
	r.drain(t, "PS", 2)
	r.checkpoint(t)
	r.sync(t)
	return r
}

func TestRecoverCorruptDeltaReplaysRetainedWAL(t *testing.T) {
	r := deltaRig(t)
	deltas := findFiles(t, r.fs, "ckpt-")
	var target string
	for _, n := range deltas {
		if strings.Contains(n, "-d") {
			target = n
		}
	}
	if target == "" {
		t.Fatalf("no delta segment on disk: %v", deltas)
	}
	corruptFile(t, r.fs, target, -3)

	// The maintainer comes back byte-identical, but through rung 2: the
	// chain tip regresses to the surviving prefix and the retained WAL
	// suffix is replayed (and stays retained) instead.
	wantPending, wantView, wantLSN := intsKey(r.m.Pending()), rowsKey(r.m.Result()), r.wal.LastLSN()
	rec := r.crash(t)
	if rec.Fallback {
		t.Fatalf("corrupt delta forced fallback: %v", rec.Corruptions)
	}
	if intsKey(r.m.Pending()) != wantPending || rowsKey(r.m.Result()) != wantView || r.wal.LastLSN() != wantLSN {
		t.Fatal("degraded-chain recovery diverged from crashed maintainer")
	}
	if r.chain.TipLSN() >= wantLSN {
		t.Fatalf("chain tip %d did not regress past the dropped delta", r.chain.TipLSN())
	}
	if len(rec.Corruptions) == 0 || rec.Corruptions[0].Artifact != target {
		t.Fatalf("corruption blamed %v, want %s", rec.Corruptions, target)
	}
	if q := findFiles(t, r.fs, quarantinePrefix); len(q) == 0 {
		t.Fatal("corrupt delta was not quarantined")
	}
	if st := r.st.Stats(); st.Corruptions == 0 || st.Quarantined == 0 || st.Fallbacks != 0 {
		t.Fatalf("stats %+v, want corruption+quarantine without fallback", st)
	}
}

func TestRecoverCorruptWALFrameTruncatesAtTear(t *testing.T) {
	r := deltaRig(t)
	wals := findFiles(t, r.fs, "wal-")
	if len(wals) == 0 {
		t.Fatal("no retained wal segment")
	}
	// Damage the last retained segment's tail frame. The records are
	// covered by the checkpoint chain, so recovery truncates the log at
	// the tear and is still exact.
	corruptFile(t, r.fs, wals[len(wals)-1], -2)
	r.assertExact(t, true)
}

func TestRecoverCorruptBaseFallsBackToFullRefresh(t *testing.T) {
	r := deltaRig(t)
	// Un-checkpointed pending work that a full refresh legitimately
	// loses: the fallback rebuilds from the live tables instead.
	r.apply(t, 300, 2)
	r.sync(t)
	base := findFiles(t, r.fs, "ckpt-")
	sort.Strings(base)
	var target string
	for _, n := range base {
		if strings.HasSuffix(n, "-base.seg") {
			target = n
		}
	}
	corruptFile(t, r.fs, target, 10)

	rec := r.crash(t)
	if !rec.Fallback {
		t.Fatalf("corrupt base did not force fallback: %v", rec.Corruptions)
	}
	if len(rec.Corruptions) == 0 {
		t.Fatal("fallback reported no corruption")
	}
	if st := r.st.Stats(); st.Fallbacks != 1 {
		t.Fatalf("stats %+v, want one fallback", st)
	}
	// The fallback maintainer reflects the live tables exactly and the
	// store is re-seeded: the next crash recovers exactly again.
	fresh, err := r.m.RecomputeFresh()
	if err != nil {
		t.Fatal(err)
	}
	if rowsKey(r.m.Result()) != rowsKey(fresh) {
		t.Fatal("fallback maintainer does not match live tables")
	}
	r.apply(t, 400, 3)
	r.drain(t, "PS", 1)
	r.sync(t)
	r.assertExact(t, false)
}

func TestRecoverMissingManifestFallsBack(t *testing.T) {
	r := deltaRig(t)
	if err := r.fs.Remove(manifestName); err != nil {
		t.Fatal(err)
	}
	rec := r.crash(t)
	if !rec.Fallback {
		t.Fatal("missing manifest did not force fallback")
	}
	r.apply(t, 500, 2)
	r.sync(t)
	r.assertExact(t, false)
}

func TestRecoverSilentTailLossDetectedByWatermark(t *testing.T) {
	r := newRig(t, NewMemFS(), 4)
	r.apply(t, 100, 4)
	r.drain(t, "PS", 2)
	r.sync(t)
	// Cut the log at a frame boundary — the tear a checksum scan cannot
	// see. Only the acknowledged-LSN watermark catches it.
	wals := findFiles(t, r.fs, "wal-")
	data, err := r.fs.ReadFile(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	_, boundary, err := readFrame(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.fs.WriteFile(wals[0], data[:boundary]); err != nil {
		t.Fatal(err)
	}
	rec := r.crash(t)
	if !rec.Fallback {
		t.Fatal("boundary-cut tail loss was not detected")
	}
	found := false
	for _, c := range rec.Corruptions {
		if strings.Contains(c.Detail, "silent tail loss") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no silent-tail-loss event in %v", rec.Corruptions)
	}
}

func TestTruncateRetainsBackToBaseLSN(t *testing.T) {
	r := deltaRig(t)
	// The chain tip is past the base, so truncation must keep the
	// segments covering (baseLSN, tip] even though the in-memory WAL
	// dropped them.
	if len(findFiles(t, r.fs, "wal-")) == 0 {
		t.Fatal("truncation deleted the log back past the manifest base")
	}
	// Compacting moves the base to the tip; the next truncation may then
	// reclaim everything.
	if err := r.chain.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := r.wal.TruncateThrough(r.chain.TipLSN()); err != nil {
		t.Fatal(err)
	}
	if got := findFiles(t, r.fs, "wal-"); len(got) != 0 {
		t.Fatalf("fully-covered segments retained after compaction: %v", got)
	}
}

func TestDirOpenerEndToEnd(t *testing.T) {
	open := DirOpener(t.TempDir())
	st, err := open("shard0/orders")
	if err != nil {
		t.Fatal(err)
	}
	db := liveDB(t)
	m, _, _ := build(t, db, st, 4)
	for i := 0; i < 5; i++ {
		if err := m.Apply(ivm.Insert("PS", storage.Row{storage.I(int64(900 + i)), storage.I(1), storage.F(42)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.ProcessBatch("PS", 3); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	wantView := rowsKey(m.Result())
	rec, err := st.Recover(db, paperView, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Fallback {
		t.Fatalf("clean DirFS recovery fell back: %v", rec.Corruptions)
	}
	if got := rowsKey(rec.M.Result()); got != wantView {
		t.Fatalf("recovered view %s, want %s", got, wantView)
	}
}
