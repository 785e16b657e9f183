package ivm

import (
	"fmt"
	"strings"
	"testing"

	"abivm/internal/fault"
	"abivm/internal/obs"
	"abivm/internal/storage"
)

// applyN applies n partsupp inserts with keys starting at base.
func applyN(t testing.TB, m *Maintainer, base, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := int64(base + i)
		mod := Insert("PS", storage.Row{storage.I(k), storage.I(k % 6), storage.F(float64(50 + k))})
		if err := apply(m, mod); err != nil {
			t.Fatal(err)
		}
	}
}

// fullCheckpoint takes one full checkpoint of m: a depth-0 chain holds
// exactly one base segment.
func fullCheckpoint(t *testing.T, m *Maintainer) *CheckpointChain {
	t.Helper()
	chain := NewCheckpointChain(0)
	if err := chain.Checkpoint(m); err != nil {
		t.Fatal(err)
	}
	return chain
}

// pendingKey renders the pending vector for comparison.
func pendingKey(m *Maintainer) string { return fmt.Sprint(m.Pending()) }

func TestCheckpointRecoverRoundTrip(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewWAL()
	m.AttachWAL(wal)

	// Arrivals, a partial drain, a checkpoint, then more work past it.
	applyN(t, m, 100, 6)
	if err := m.ProcessBatch("PS", 2); err != nil {
		t.Fatal(err)
	}
	cp := fullCheckpoint(t, m)
	applyN(t, m, 200, 3)
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

	wantPending := pendingKey(m)
	wantView := rowsKey(m.Result())

	rec, err := RecoverChain(db, paperView, cp, wal)
	if err != nil {
		t.Fatal(err)
	}
	if got := pendingKey(rec); got != wantPending {
		t.Errorf("recovered pending %s, want %s", got, wantPending)
	}
	if got := rowsKey(rec.Result()); got != wantView {
		t.Errorf("recovered view %s, want %s", got, wantView)
	}
	// The recovered maintainer keeps working: it converges to the same
	// ground truth as the original.
	assertConsistent(t, rec)
	assertConsistent(t, m)
	if rowsKey(rec.Result()) != rowsKey(m.Result()) {
		t.Error("recovered and original maintainers diverged after refresh")
	}
}

func TestRecoverAfterWALTruncation(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewWAL()
	m.AttachWAL(wal)
	applyN(t, m, 100, 4)
	if err := m.ProcessBatch("PS", 3); err != nil {
		t.Fatal(err)
	}
	lsn := wal.LastLSN()
	cp := fullCheckpoint(t, m)
	wal.TruncateThrough(lsn)
	applyN(t, m, 300, 2)

	rec, err := RecoverChain(db, paperView, cp, wal)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pendingKey(rec), pendingKey(m); got != want {
		t.Errorf("pending after truncated-WAL recovery %s, want %s", got, want)
	}
	assertConsistent(t, rec)
}

func TestRecoverRejectsBadCheckpoint(t *testing.T) {
	db := liveDB(t)
	if _, err := RecoverChain(db, paperView, RestoreChain([]byte("not a checkpoint"), nil, 0, 0), NewWAL()); err == nil {
		t.Error("garbage checkpoint accepted")
	}
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	cp := fullCheckpoint(t, m)
	// A view over a table the checkpoint has no replica for must be
	// rejected, not silently rebuilt.
	if _, err := RecoverChain(db, "SELECT a.x FROM audit AS a", cp, NewWAL()); err == nil {
		t.Error("checkpoint missing the view's replica accepted")
	}
}

// drainState is what a failed drain must leave as it found it: the
// replica's snapshot bytes, the delta queues, the view and the dirty set.
func drainState(m *Maintainer) string {
	return fmt.Sprintf("replica %x\nqueues %v\nview %s\ndirty %v",
		m.replica.AppendSnapshot(nil), m.deltas, rowsKey(m.Result()), m.dirty)
}

// rollbackFixture is a maintainer with one drain committed (so the dirty
// set is not empty) and, queued on PS, five inserts and an update and a
// delete of the drained rows, so a drain of the whole queue has both
// replica deletions and insertions to roll back.
func rollbackFixture(t *testing.T) *Maintainer {
	t.Helper()
	m, err := New(liveDB(t), paperView)
	if err != nil {
		t.Fatal(err)
	}
	applyN(t, m, 100, 7)
	if err := m.ProcessBatch("PS", 2); err != nil {
		t.Fatal(err)
	}
	if err := apply(m, Update("PS", []storage.Value{storage.I(100)},
		storage.Row{storage.I(100), storage.I(3), storage.F(1)})); err != nil {
		t.Fatal(err)
	}
	if err := apply(m, Delete("PS", storage.I(101))); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestProcessBatchRollsBackOnMidApplyFault(t *testing.T) {
	m := rollbackFixture(t)
	want := drainState(m)
	for _, site := range []fault.Site{fault.SiteDrainPlan, fault.SiteDrainApply, fault.SiteWALCommit} {
		m.SetInjector(fault.AlwaysAt(site))
		err := m.ProcessBatch("PS", 7)
		if err == nil {
			t.Fatalf("%s: injected fault did not surface", site)
		}
		if !fault.Transient(err) {
			t.Fatalf("%s: error %v is not transient", site, err)
		}
		if got := drainState(m); got != want {
			t.Fatalf("%s: failed drain changed the maintainer:\n got %s\nwant %s", site, got, want)
		}
	}

	// Clearing the injector, the same drain succeeds and the maintainer
	// converges — proof the rollbacks left no residue.
	m.SetInjector(nil)
	if err := m.ProcessBatch("PS", 7); err != nil {
		t.Fatal(err)
	}
	assertConsistent(t, m)
}

// refusingSink is a WAL sink that refuses records of one kind while
// refuse is set and accepts everything else.
type refusingSink struct {
	kind   WALKind
	refuse bool
}

func (s *refusingSink) AppendRecord(rec WALRecord) error {
	if s.refuse && rec.Kind == s.kind {
		return fmt.Errorf("sink refuses lsn %d", rec.LSN)
	}
	return nil
}

func (s *refusingSink) TruncateRecords(uint64) error { return nil }

// countAppends attaches a metrics bundle to m and returns a check that
// ivm_wal_appends_total has counted exactly the records w accepted since.
func countAppends(t *testing.T, m *Maintainer, w *WAL) func() {
	ms := NewMetrics(obs.NewRegistry())
	m.SetMetrics(ms)
	from := w.LastLSN()
	return func() {
		t.Helper()
		if got, want := ms.WALAppends.Value(), int64(w.LastLSN()-from); got != want {
			t.Errorf("ivm_wal_appends_total counted %d appends, the log accepted %d", got, want)
		}
	}
}

// TestProcessBatchRollsBackPartialApply fails a drain after it has
// written part of the replica — partway through its insertions, and
// after all of them when the redo log refuses the drain record — and
// checks that the rollback takes back exactly the writes made, so the
// same drain succeeds once the fault is gone — and that the refused drain
// record is not in the log, so recovery replays the retry alone, nor
// counted as an append.
func TestProcessBatchRollsBackPartialApply(t *testing.T) {
	t.Run("insert", func(t *testing.T) {
		m := rollbackFixture(t)
		// A row one column too wide, queued without touching the live
		// table: the net delta and the delta join take it, and the
		// replica refuses it after the batch's other insertions.
		good := storage.Row{storage.I(200), storage.I(2), storage.F(7)}
		if err := m.ApplyDeferred(Insert("PS", append(good.Clone(), storage.I(0)))); err != nil {
			t.Fatal(err)
		}
		want := drainState(m)
		if err := m.ProcessBatch("PS", 8); err == nil || !strings.Contains(err.Error(), "replica insert") {
			t.Fatalf("drain with a row of the wrong arity: error %v, want a replica insert error", err)
		}
		if got := drainState(m); got != want {
			t.Fatalf("failed drain changed the maintainer:\n got %s\nwant %s", got, want)
		}
		if err := ApplyLive(m.live, "partsupp", Insert("PS", good), true); err != nil {
			t.Fatal(err)
		}
		m.deltas["PS"][7].Row = good
		if err := m.ProcessBatch("PS", 8); err != nil {
			t.Fatal(err)
		}
		assertConsistent(t, m)
	})
	t.Run("wal", func(t *testing.T) {
		m := rollbackFixture(t)
		sink := &refusingSink{kind: WALDrain}
		w := NewWAL()
		w.SetSink(sink)
		m.AttachWAL(w)
		chain := fullCheckpoint(t, m)
		checkAppends := countAppends(t, m, w)
		sink.refuse = true
		want := drainState(m)
		if err := m.ProcessBatch("PS", 7); err == nil {
			t.Fatal("a drain the redo log refused committed")
		}
		if got := drainState(m); got != want {
			t.Fatalf("failed drain changed the maintainer:\n got %s\nwant %s", got, want)
		}
		sink.refuse = false
		if err := m.ProcessBatch("PS", 7); err != nil {
			t.Fatal(err)
		}
		assertConsistent(t, m)
		applyN(t, m, 200, 3)
		checkAppends()
		rec, err := RecoverChain(m.live, paperView, chain, w)
		if err != nil {
			t.Fatal(err)
		}
		if pendingKey(rec) != pendingKey(m) || rowsKey(rec.Result()) != rowsKey(m.Result()) {
			t.Fatalf("recovered pending %s view %s, want pending %s view %s",
				pendingKey(rec), rowsKey(rec.Result()), pendingKey(m), rowsKey(m.Result()))
		}
	})
}

// TestApplyDeferredRefusedArrivalQueuesNothing: an arrival the redo log
// refuses is not queued, takes no LSN and is not counted as an append, so
// the maintainer and its log stay in step and the same arrival can be
// offered again.
func TestApplyDeferredRefusedArrivalQueuesNothing(t *testing.T) {
	m, err := New(liveDB(t), paperView)
	if err != nil {
		t.Fatal(err)
	}
	sink := &refusingSink{kind: WALArrival}
	w := NewWAL()
	w.SetSink(sink)
	m.AttachWAL(w)
	chain := fullCheckpoint(t, m)
	checkAppends := countAppends(t, m, w)
	applyN(t, m, 100, 7)
	want, lsn := drainState(m), w.LastLSN()
	sink.refuse = true
	mod := Insert("PS", storage.Row{storage.I(107), storage.I(1), storage.F(57)})
	if err := m.ApplyDeferred(mod); err == nil {
		t.Fatal("an arrival the redo log refused was accepted")
	}
	if got := drainState(m); got != want {
		t.Fatalf("refused arrival changed the maintainer:\n got %s\nwant %s", got, want)
	}
	if got := w.LastLSN(); got != lsn {
		t.Fatalf("refused arrival took lsn %d (log was at %d)", got, lsn)
	}
	sink.refuse = false
	applyN(t, m, 107, 1)
	checkAppends()
	rec, err := RecoverChain(m.live, paperView, chain, w)
	if err != nil {
		t.Fatal(err)
	}
	if queuesKey(rec) != queuesKey(m) {
		t.Fatalf("recovered queues %s, want %s", queuesKey(rec), queuesKey(m))
	}
}

func TestProcessBatchRetryAfterRollbackMatchesFaultFree(t *testing.T) {
	build := func(inj fault.Injector) *Maintainer {
		t.Helper()
		m, err := New(liveDB(t), paperView)
		if err != nil {
			t.Fatal(err)
		}
		m.SetInjector(inj)
		return m
	}
	clean := build(nil)
	faulty := build(fault.NewSeeded(7, fault.Rates{DrainPlan: 0.4, DrainApply: 0.4}))
	for _, m := range []*Maintainer{clean, faulty} {
		applyN(t, m, 100, 8)
	}
	for _, step := range []struct {
		alias string
		k     int
	}{{"PS", 3}, {"PS", 2}, {"PS", 3}} {
		if err := clean.ProcessBatch(step.alias, step.k); err != nil {
			t.Fatal(err)
		}
		// Retry the faulty maintainer until the drain commits; rollback
		// must make each retry start from the identical pre-state.
		for attempt := 0; ; attempt++ {
			if attempt > 2*fault.MaxRun+2 {
				t.Fatal("retries did not clear the capped fault runs")
			}
			err := faulty.ProcessBatch(step.alias, step.k)
			if err == nil {
				break
			}
			if !fault.Transient(err) {
				t.Fatal(err)
			}
		}
	}
	if rowsKey(clean.Result()) != rowsKey(faulty.Result()) {
		t.Error("faulted-and-retried view diverged from fault-free view")
	}
	if pendingKey(clean) != pendingKey(faulty) {
		t.Error("faulted-and-retried pending diverged from fault-free pending")
	}
}
