package ivm

import (
	"testing"

	"abivm/internal/obs"
	"abivm/internal/storage"
)

// mixedBurst applies a burst of inserts plus an update and a delete on
// the partsupp alias and a supplier move, leaving pending work on two
// aliases.
func mixedBurst(t *testing.T, m *Maintainer, base int) {
	t.Helper()
	applyN(t, m, base, 5)
	if err := apply(m, Update("PS", []storage.Value{storage.I(int64(base))},
		storage.Row{storage.I(int64(base)), storage.I(2), storage.F(float64(base) / 2)})); err != nil {
		t.Fatal(err)
	}
	if err := apply(m, Delete("PS", storage.I(int64(base+1)))); err != nil {
		t.Fatal(err)
	}
	if err := apply(m, Update("S", []storage.Value{storage.I(1)},
		storage.Row{storage.I(1), storage.S("S'"), storage.I(int64(base % 4))})); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshFallbackMatchesRecompute exercises the full-refresh
// fallback: after bursts with interleaved partial drains, Refresh must
// clear every pending delta and land on exactly the from-scratch
// recompute; a second Refresh must be a no-op (no further drains).
func TestRefreshFallbackMatchesRecompute(t *testing.T) {
	m, err := New(liveDB(t), paperView)
	if err != nil {
		t.Fatal(err)
	}

	mixedBurst(t, m, 100)
	if err := m.ProcessBatch("PS", 2); err != nil { // partial drain mid-burst
		t.Fatal(err)
	}
	mixedBurst(t, m, 200)

	if err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	for i, n := range m.Pending() {
		if n != 0 {
			t.Errorf("alias %d: %d mods still pending after Refresh", i, n)
		}
	}
	fresh := evalOver(t, m, m.live)
	if rowsKey(m.Result()) != rowsKey(fresh) {
		t.Fatalf("refreshed view diverged from recompute:\nincremental: %v\nfresh:       %v", m.Result(), fresh)
	}

	// An up-to-date maintainer has nothing to drain: Refresh must not
	// touch the drain path at all.
	drains := m.Stats().BatchSetups
	if err := m.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().BatchSetups; got != drains {
		t.Errorf("no-op Refresh issued %d extra drains", got-drains)
	}
}

// TestCheckpointWALTruncationMidBurst interleaves a checkpoint and its
// WAL truncation into the middle of a modification burst, keeps working
// past it, then crashes: recovery from the mid-burst checkpoint plus the
// truncated tail must reproduce the pre-crash state byte for byte, and
// both maintainers must stay in lockstep afterwards.
func TestCheckpointWALTruncationMidBurst(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewWAL()
	m.AttachWAL(wal)
	ms := NewMetrics(obs.NewRegistry())
	m.SetMetrics(ms)

	// First half of the burst, with a partial drain in flight.
	mixedBurst(t, m, 100)
	if err := m.ProcessBatch("PS", 3); err != nil {
		t.Fatal(err)
	}

	// Checkpoint lands mid-burst; the coordinator truncates everything
	// the checkpoint covers.
	cp := fullCheckpoint(t, m)
	if err := m.TruncateWAL(wal.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if wal.Len() != 0 {
		t.Fatalf("WAL holds %d records after full truncation", wal.Len())
	}

	// The burst continues as if nothing happened.
	mixedBurst(t, m, 200)
	if err := m.ProcessBatch("PS", 2); err != nil {
		t.Fatal(err)
	}
	if err := m.ProcessBatch("S", 1); err != nil {
		t.Fatal(err)
	}
	tail := wal.Len()
	if tail == 0 {
		t.Fatal("post-truncation burst appended no WAL records")
	}

	// Crash. Recovery sees only the checkpoint and the truncated tail.
	rms := NewMetrics(obs.NewRegistry())
	rec, err := RecoverChainNamespaced(db, paperView, "", cp, wal, rms)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pendingKey(rec), pendingKey(m); got != want {
		t.Errorf("recovered pending %s, want %s", got, want)
	}
	if got, want := rowsKey(rec.Result()), rowsKey(m.Result()); got != want {
		t.Errorf("recovered view diverged from pre-crash view")
	}
	if got := rms.RecoveryReplay.Sum(); got != float64(tail) {
		t.Errorf("recovery replayed %v records, want %d", got, tail)
	}
	if got := ms.WALTruncations.Value(); got != 1 {
		t.Errorf("truncations counter = %d, want 1", got)
	}

	// Both survivors keep working in lockstep over the shared live
	// database: the original applies the live change, the recovered one
	// observes it deferred (the broker's multiplexing contract).
	for i := 0; i < 2; i++ {
		k := int64(300 + i)
		mod := Insert("PS", storage.Row{storage.I(k), storage.I(k % 6), storage.F(float64(50 + k))})
		if err := apply(m, mod); err != nil {
			t.Fatal(err)
		}
		if err := rec.ApplyDeferred(mod); err != nil {
			t.Fatal(err)
		}
	}
	for _, mm := range []*Maintainer{m, rec} {
		if err := mm.ProcessBatch("PS", 1); err != nil {
			t.Fatal(err)
		}
	}
	if pendingKey(rec) != pendingKey(m) {
		t.Error("pending diverged after post-recovery steps")
	}
	assertConsistent(t, m)
	assertConsistent(t, rec)
	if rowsKey(rec.Result()) != rowsKey(m.Result()) {
		t.Error("views diverged after post-recovery refresh")
	}
}
