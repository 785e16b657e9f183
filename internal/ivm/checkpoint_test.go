package ivm

import (
	"strings"
	"testing"

	"abivm/internal/storage"
)

// chainFixture builds a maintainer with a WAL and a checkpoint chain,
// runs a scripted workload that interleaves arrivals, drains, and chain
// checkpoints, and returns everything for inspection. The script is
// deterministic, so two fixtures are byte-for-byte interchangeable.
func chainFixture(t testing.TB, maxDepth int) (*storage.DB, *Maintainer, *WAL, *CheckpointChain) {
	t.Helper()
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewWAL()
	m.AttachWAL(wal)
	chain := NewCheckpointChain(maxDepth)
	if err := chain.Checkpoint(m); err != nil { // base segment
		t.Fatal(err)
	}

	applyN(t, m, 100, 6)
	if err := m.ProcessBatch("PS", 3); err != nil {
		t.Fatal(err)
	}
	if err := chain.Checkpoint(m); err != nil { // delta 1
		t.Fatal(err)
	}

	// A delete and an update make the second delta carry all three
	// mutation shapes.
	if err := apply(m, Delete("PS", storage.I(100))); err != nil {
		t.Fatal(err)
	}
	if err := apply(m, Update("S", []storage.Value{storage.I(0)},
		storage.Row{storage.I(0), storage.S("S2"), storage.I(1)})); err != nil {
		t.Fatal(err)
	}
	if err := m.ProcessBatch("PS", 4); err != nil {
		t.Fatal(err)
	}
	if err := m.ProcessBatch("S", 1); err != nil {
		t.Fatal(err)
	}
	if err := chain.Checkpoint(m); err != nil { // delta 2
		t.Fatal(err)
	}

	// Work past the chain tip, so recovery also replays a WAL suffix.
	applyN(t, m, 200, 3)
	if err := m.ProcessBatch("PS", 2); err != nil {
		t.Fatal(err)
	}
	return db, m, wal, chain
}

func TestChainCheckpointRecoverRoundTrip(t *testing.T) {
	db, m, wal, chain := chainFixture(t, DefaultChainDepth)
	if chain.Depth() != 2 {
		t.Fatalf("chain depth = %d, want 2", chain.Depth())
	}

	wantPending := pendingKey(m)
	wantView := rowsKey(m.Result())

	rec, err := RecoverChain(db, paperView, chain, wal)
	if err != nil {
		t.Fatal(err)
	}
	if got := pendingKey(rec); got != wantPending {
		t.Errorf("recovered pending %s, want %s", got, wantPending)
	}
	if got := rowsKey(rec.Result()); got != wantView {
		t.Errorf("recovered view %s, want %s", got, wantView)
	}
	// The recovered maintainer keeps working and converges to the same
	// ground truth as the original.
	assertConsistent(t, rec)
	assertConsistent(t, m)
	if rowsKey(rec.Result()) != rowsKey(m.Result()) {
		t.Error("recovered and original maintainers diverged after refresh")
	}
}

func TestChainRecoveryMatchesFullCheckpointRecovery(t *testing.T) {
	// The same workload driven twice: one recovery point is an
	// incremental chain, the other a single full checkpoint taken at the
	// same moment. Both recoveries must produce identical maintainers.
	db1, _, wal1, chain := chainFixture(t, DefaultChainDepth)
	db2, m2, wal2, _ := chainFixture(t, DefaultChainDepth)

	// The two recovery points cover different WAL prefixes (chain tip vs.
	// this instant) but recovery must converge because the WAL suffix
	// fills the difference.
	full := fullCheckpoint(t, m2)

	recChain, err := RecoverChain(db1, paperView, chain, wal1)
	if err != nil {
		t.Fatal(err)
	}
	recFull, err := RecoverChain(db2, paperView, full, wal2)
	if err != nil {
		t.Fatal(err)
	}
	if pendingKey(recChain) != pendingKey(recFull) {
		t.Errorf("chain pending %s, full-checkpoint pending %s", pendingKey(recChain), pendingKey(recFull))
	}
	if rowsKey(recChain.Result()) != rowsKey(recFull.Result()) {
		t.Error("chain recovery and full-checkpoint recovery produced different views")
	}
}

func TestChainCompactionPreservesRecovery(t *testing.T) {
	db1, m1, wal1, chain1 := chainFixture(t, DefaultChainDepth)
	db2, _, wal2, chain2 := chainFixture(t, DefaultChainDepth)

	if err := chain2.Compact(); err != nil {
		t.Fatal(err)
	}
	if chain2.Depth() != 0 {
		t.Fatalf("depth after compaction = %d", chain2.Depth())
	}
	if chain1.TipLSN() != chain2.TipLSN() {
		t.Fatalf("compaction moved the tip: %d vs %d", chain2.TipLSN(), chain1.TipLSN())
	}

	rec1, err := RecoverChain(db1, paperView, chain1, wal1)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := RecoverChain(db2, paperView, chain2, wal2)
	if err != nil {
		t.Fatal(err)
	}
	if pendingKey(rec1) != pendingKey(rec2) {
		t.Errorf("pending diverged: chained %s, compacted %s", pendingKey(rec1), pendingKey(rec2))
	}
	if rowsKey(rec1.Result()) != rowsKey(rec2.Result()) {
		t.Error("compacted-chain recovery diverged from chained recovery")
	}
	// Compacting twice (or an empty chain) is a no-op.
	if err := chain2.Compact(); err != nil {
		t.Fatal(err)
	}
	// The original maintainer is untouched by compaction.
	assertConsistent(t, m1)
}

func TestChainRollsOverAtMaxDepth(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewWAL()
	m.AttachWAL(wal)
	chain := NewCheckpointChain(2)
	if err := chain.Checkpoint(m); err != nil {
		t.Fatal(err)
	}
	depths := []int{1, 2, 0, 1} // the third checkpoint finds the chain at maxDepth=2 and rolls over
	for i, want := range depths {
		applyN(t, m, 100+10*i, 2)
		if err := m.ProcessBatch("PS", 2); err != nil {
			t.Fatal(err)
		}
		if err := chain.Checkpoint(m); err != nil {
			t.Fatal(err)
		}
		if chain.Depth() != want {
			t.Fatalf("after checkpoint %d: depth %d, want %d", i+1, chain.Depth(), want)
		}
	}
	rec, err := RecoverChain(db, paperView, chain, wal)
	if err != nil {
		t.Fatal(err)
	}
	if pendingKey(rec) != pendingKey(m) || rowsKey(rec.Result()) != rowsKey(m.Result()) {
		t.Error("recovery after a rollover diverged")
	}
}

func TestChainDepthZeroIsFullCheckpointing(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewWAL()
	m.AttachWAL(wal)
	chain := NewCheckpointChain(0)
	for i := 0; i < 3; i++ {
		applyN(t, m, 100+10*i, 2)
		if err := m.ProcessBatch("PS", 1); err != nil {
			t.Fatal(err)
		}
		if err := chain.Checkpoint(m); err != nil {
			t.Fatal(err)
		}
		if chain.Depth() != 0 {
			t.Fatalf("depth-0 chain retained %d deltas", chain.Depth())
		}
		wal.TruncateThrough(chain.TipLSN())
	}
	rec, err := RecoverChain(db, paperView, chain, wal)
	if err != nil {
		t.Fatal(err)
	}
	if pendingKey(rec) != pendingKey(m) || rowsKey(rec.Result()) != rowsKey(m.Result()) {
		t.Error("depth-0 chain recovery diverged")
	}
}

func TestRestoredChainExtendsAdoptedBase(t *testing.T) {
	// A base segment written by one chain serves another chain restored
	// around it (what durable recovery does with the files it finds), and
	// delta segments extend it.
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewWAL()
	m.AttachWAL(wal)
	applyN(t, m, 100, 4)
	if err := m.ProcessBatch("PS", 2); err != nil {
		t.Fatal(err)
	}
	chain := RestoreChain(fullCheckpoint(t, m).base, nil, wal.LastLSN(), DefaultChainDepth)
	if chain.base == nil {
		t.Fatal("chain did not adopt the base")
	}

	applyN(t, m, 200, 3)
	if err := m.ProcessBatch("PS", 3); err != nil {
		t.Fatal(err)
	}
	if err := chain.Checkpoint(m); err != nil {
		t.Fatal(err)
	}
	if chain.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", chain.Depth())
	}
	rec, err := RecoverChain(db, paperView, chain, wal)
	if err != nil {
		t.Fatal(err)
	}
	if pendingKey(rec) != pendingKey(m) || rowsKey(rec.Result()) != rowsKey(m.Result()) {
		t.Error("recovery from an adopted base diverged")
	}
}

func TestChainRejectsTruncatedChain(t *testing.T) {
	db, _, wal, chain := chainFixture(t, DefaultChainDepth)

	// Dropping the first delta leaves a FromLSN gap.
	whole := chain.deltas
	chain.deltas = whole[1:]
	_, err := RecoverChain(db, paperView, chain, wal)
	if err == nil || !strings.Contains(err.Error(), "delta chain gap") {
		t.Errorf("truncated chain error = %v, want a delta-chain-gap diagnosis", err)
	}
	// Compaction applies the same validation.
	if err := chain.Compact(); err == nil || !strings.Contains(err.Error(), "delta chain gap") {
		t.Errorf("compacting a truncated chain: err = %v", err)
	}

	// Reordered segments are diagnosed the same way.
	chain.deltas = [][]byte{whole[1], whole[0]}
	if _, err := RecoverChain(db, paperView, chain, wal); err == nil || !strings.Contains(err.Error(), "delta chain gap") {
		t.Errorf("reordered chain error = %v", err)
	}

	// A corrupt segment fails decoding with a segment-naming error.
	chain.deltas = [][]byte{whole[0], []byte("garbage segment")}
	if _, err := RecoverChain(db, paperView, chain, wal); err == nil || !strings.Contains(err.Error(), "delta segment 1") {
		t.Errorf("corrupt segment error = %v", err)
	}

	// A chain with deltas but no base is rejected outright.
	empty := NewCheckpointChain(DefaultChainDepth)
	if _, err := RecoverChain(db, paperView, empty, wal); err == nil {
		t.Error("recovery from an empty chain succeeded")
	}
}

func TestChainValidatesNamespace(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewWAL()
	m.AttachWAL(wal)
	m.SetNamespace("shard1/east")
	chain := NewCheckpointChain(DefaultChainDepth)
	if err := chain.Checkpoint(m); err != nil {
		t.Fatal(err)
	}
	applyN(t, m, 100, 2)
	if err := m.ProcessBatch("PS", 2); err != nil {
		t.Fatal(err)
	}
	if err := chain.Checkpoint(m); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverChainNamespaced(db, paperView, "shard2/east", chain, wal, nil); err == nil {
		t.Error("foreign-namespace chain accepted")
	}
	if _, err := RecoverChainNamespaced(db, paperView, "shard1/east", chain, wal, nil); err != nil {
		t.Errorf("owner recovery failed: %v", err)
	}
}

func TestCheckpointDeltaIsSmallerThanFull(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewWAL()
	m.AttachWAL(wal)
	chain := NewCheckpointChain(DefaultChainDepth)
	if err := chain.Checkpoint(m); err != nil {
		t.Fatal(err)
	}
	applyN(t, m, 100, 2)
	if err := m.ProcessBatch("PS", 2); err != nil {
		t.Fatal(err)
	}
	if err := chain.Checkpoint(m); err != nil {
		t.Fatal(err)
	}
	base, delta := len(chain.base), len(chain.deltas[0])
	if delta >= base {
		t.Errorf("delta segment (%d bytes) not smaller than base (%d bytes)", delta, base)
	}
}
