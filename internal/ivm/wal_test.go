package ivm

import (
	"errors"
	"sync"
	"testing"

	"abivm/internal/storage"
	"abivm/internal/testenv"
)

// recordsSince collects every record with LSN > lsn through Replay.
func recordsSince(t *testing.T, w *WAL, lsn uint64) []WALRecord {
	t.Helper()
	var out []WALRecord
	if err := w.Replay(lsn, func(rec WALRecord) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWALAppendSinceTruncate(t *testing.T) {
	w := NewWAL()
	if got := w.LastLSN(); got != 0 {
		t.Fatalf("empty LastLSN = %d", got)
	}
	for i := 0; i < 5; i++ {
		lsn, err := w.Append(WALRecord{Kind: WALDrain, Alias: "a", K: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
	}
	if got := w.LastLSN(); got != 5 {
		t.Fatalf("LastLSN = %d", got)
	}
	since := recordsSince(t, w, 2)
	if len(since) != 3 || since[0].LSN != 3 || since[2].LSN != 5 {
		t.Fatalf("Since(2) = %+v", since)
	}
	if got := recordsSince(t, w, 99); len(got) != 0 {
		t.Fatalf("Since(99) = %+v", got)
	}

	w.TruncateThrough(3)
	if w.Len() != 2 {
		t.Fatalf("Len after truncate = %d", w.Len())
	}
	// Truncation must not disturb LSN assignment.
	lsn, err := w.Append(WALRecord{Kind: WALArrival, Mod: Insert("a", storage.Row{storage.I(1)})})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 6 {
		t.Fatalf("post-truncate lsn = %d, want 6", lsn)
	}
	got := recordsSince(t, w, 0)
	if len(got) != 3 || got[0].LSN != 4 || got[2].LSN != 6 {
		t.Fatalf("Since(0) after truncate = %+v", got)
	}
}

func TestWALReplay(t *testing.T) {
	w := NewWAL()
	for i := 0; i < 8; i++ {
		if _, err := w.Append(WALRecord{Kind: WALDrain, Alias: "a", K: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	w.TruncateThrough(2)

	// Replay sees exactly the records Since sees, in order.
	var lsns []uint64
	if err := w.Replay(4, func(rec WALRecord) error {
		lsns = append(lsns, rec.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 4 || lsns[0] != 5 || lsns[3] != 8 {
		t.Fatalf("Replay(4) visited %v", lsns)
	}

	// A replayed suffix stays intact even when the log is appended to and
	// truncated mid-iteration — record cells are write-once.
	count := 0
	if err := w.Replay(0, func(rec WALRecord) error {
		if count == 0 {
			if _, err := w.Append(WALRecord{Kind: WALDrain, Alias: "b", K: 9}); err != nil {
				t.Fatal(err)
			}
			w.TruncateThrough(6)
		}
		if want := uint64(3 + count); rec.LSN != want {
			t.Fatalf("record %d has lsn %d, want %d", count, rec.LSN, want)
		}
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 6 {
		t.Fatalf("replayed %d records, want 6", count)
	}

	// Errors from fn stop the iteration and propagate.
	calls := 0
	err := w.Replay(0, func(rec WALRecord) error {
		calls++
		return errStop
	})
	if err != errStop || calls != 1 {
		t.Fatalf("err = %v after %d calls", err, calls)
	}
}

// errStop is a sentinel for testing error propagation from Replay.
var errStop = errors.New("stop")

func TestWALTruncateAllReleasesLog(t *testing.T) {
	w := NewWAL()
	for i := 0; i < 4; i++ {
		if _, err := w.Append(WALRecord{Kind: WALDrain, Alias: "a", K: 1}); err != nil {
			t.Fatal(err)
		}
	}
	w.TruncateThrough(99)
	if w.Len() != 0 {
		t.Fatalf("Len = %d after full truncation", w.Len())
	}
	// LSNs keep advancing across a full truncation.
	lsn, err := w.Append(WALRecord{Kind: WALDrain, Alias: "a", K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 5 {
		t.Fatalf("lsn = %d, want 5", lsn)
	}
	if got := recordsSince(t, w, 0); len(got) != 1 || got[0].LSN != 5 {
		t.Fatalf("Since(0) = %+v", got)
	}
}

// appendPeriod appends n drain records under alias and truncates them all
// away, as a checkpoint period does.
func appendPeriod(t *testing.T, w *WAL, alias string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := w.Append(WALRecord{Kind: WALDrain, Alias: alias, K: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.TruncateThrough(w.LastLSN()); err != nil {
		t.Fatal(err)
	}
}

// TestWALPeriodAllocsOneArray: a log that a checkpoint empties every
// period appends the next period into one array sized by the last.
func TestWALPeriodAllocsOneArray(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	w := NewWAL()
	if n := testing.AllocsPerRun(10, func() { appendPeriod(t, w, "a", 100) }); n != 1 {
		t.Errorf("a period of 100 appends and its truncation allocated %v times, want 1", n)
	}
}

// TestWALEmptiedLogLeavesOldArrayAlone: the array an emptied log moves to
// is a fresh one, so a suffix captured the way Replay captures it stays
// intact while later periods go by.
func TestWALEmptiedLogLeavesOldArrayAlone(t *testing.T) {
	w := NewWAL()
	appendPeriod(t, w, "a", 50)
	for i := 0; i < 50; i++ {
		if _, err := w.Append(WALRecord{Kind: WALDrain, Alias: "held", K: i}); err != nil {
			t.Fatal(err)
		}
	}
	held := w.recs
	if err := w.TruncateThrough(w.LastLSN()); err != nil {
		t.Fatal(err)
	}
	appendPeriod(t, w, "b", 50)
	appendPeriod(t, w, "c", 50)
	for i, rec := range held {
		if rec.Alias != "held" || rec.K != i {
			t.Fatalf("record %d of a captured suffix was overwritten: %+v", i, rec)
		}
	}
}

func TestWALConcurrentAppend(t *testing.T) {
	w := NewWAL()
	var wg sync.WaitGroup
	const workers, per = 8, 50
	seen := make([][]uint64, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := w.Append(WALRecord{Kind: WALDrain, Alias: "x", K: 1})
				if err != nil {
					t.Error(err)
					return
				}
				seen[g] = append(seen[g], lsn)
			}
		}(g)
	}
	wg.Wait()
	all := map[uint64]bool{}
	for _, s := range seen {
		for _, lsn := range s {
			if all[lsn] {
				t.Fatalf("duplicate lsn %d", lsn)
			}
			all[lsn] = true
		}
	}
	if len(all) != workers*per || w.LastLSN() != uint64(workers*per) {
		t.Fatalf("assigned %d lsns, last %d", len(all), w.LastLSN())
	}
}
