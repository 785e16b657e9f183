package ivm

import (
	"fmt"
	"testing"

	"abivm/internal/fault"
	"abivm/internal/storage"
)

// applyN applies n partsupp inserts with keys starting at base.
func applyN(t testing.TB, m *Maintainer, base, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := int64(base + i)
		mod := Insert("PS", storage.Row{storage.I(k), storage.I(k % 6), storage.F(float64(50 + k))})
		if err := m.Apply(mod); err != nil {
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
	if err := m.Apply(Update("S", []storage.Value{storage.I(0)},
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

func TestProcessBatchRollsBackOnMidApplyFault(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	applyN(t, m, 100, 5)
	// Mix in an update and a delete so the drain has both replica
	// deletions and insertions to roll back.
	if err := m.Apply(Update("PS", []storage.Value{storage.I(100)},
		storage.Row{storage.I(100), storage.I(3), storage.F(1)})); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(Delete("PS", storage.I(101))); err != nil {
		t.Fatal(err)
	}

	wantPending := pendingKey(m)
	wantView := rowsKey(m.Result())

	for _, site := range []fault.Site{fault.SiteDrainPlan, fault.SiteDrainApply, fault.SiteWALCommit} {
		m.SetInjector(fault.AlwaysAt(site))
		err := m.ProcessBatch("PS", 7)
		if err == nil {
			t.Fatalf("%s: injected fault did not surface", site)
		}
		if !fault.Transient(err) {
			t.Fatalf("%s: error %v is not transient", site, err)
		}
		if got := pendingKey(m); got != wantPending {
			t.Fatalf("%s: pending %s after failed drain, want %s", site, got, wantPending)
		}
		if got := rowsKey(m.Result()); got != wantView {
			t.Fatalf("%s: view changed after failed drain", site)
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
