package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// setProcs sets GOMAXPROCS, which sizes the sweeps' worker pool, to n
// until the test ends. GOMAXPROCS is process-wide, so the tests that
// call this do not call t.Parallel.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// renderWith runs the given table builders on a pool of the given size
// and returns the concatenated rendered output.
func renderWith(t *testing.T, workers int, builders ...func(Config) (*Table, error)) []byte {
	t.Helper()
	setProcs(t, workers)
	cfg := Config{Scale: 0.002, Seed: 1, Quick: true}
	var buf bytes.Buffer
	for _, b := range builders {
		tbl, err := b(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Render(&buf)
	}
	return buf.Bytes()
}

// TestParallelOutputByteIdentical is the headline guarantee of the
// parallel sweeps: for the same seed, a pool of 4 workers must render
// exactly the bytes a single worker renders, for every parallelized
// experiment.
func TestParallelOutputByteIdentical(t *testing.T) {
	builders := []func(Config) (*Table, error){Fig6Table, Fig7Table, ConcaveStudyTable}
	serial := renderWith(t, 1, builders...)
	parallel := renderWith(t, 4, builders...)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel output diverged from serial:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", serial, parallel)
	}
}

func TestRunIndexedCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 53
		var hits [n]atomic.Int32
		if err := runIndexed(nil, workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestRunIndexedPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := runIndexed(nil, workers, 20, func(i int) error {
			if i == 7 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, boom)
		}
	}
}

// TestRunIndexedHammer drives the pool hard with many tiny tasks and
// more workers than tasks deserve; under -race this shakes out any
// unsynchronized access in the scheduler or in result collection.
func TestRunIndexedHammer(t *testing.T) {
	for round := 0; round < 50; round++ {
		const n = 200
		results := make([]int, n)
		if err := runIndexed(nil, 32, n, func(i int) error {
			results[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range results {
			if v != i*i {
				t.Fatalf("round %d: results[%d] = %d", round, i, v)
			}
		}
	}
}

func TestRunIndexedStopsOnCancelledContext(t *testing.T) {
	pre := func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := runIndexed(pre(), workers, 100, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		// A pre-cancelled context must not start any serial task; the
		// parallel pool may race a handful in before workers observe it.
		if workers == 1 && ran.Load() != 0 {
			t.Fatalf("serial path ran %d tasks under a cancelled context", ran.Load())
		}
	}
}

func TestRunIndexedCancelMidRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		const n = 10_000
		err := runIndexed(ctx, workers, n, func(i int) error {
			if ran.Add(1) == 25 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got >= n {
			t.Fatalf("workers=%d: cancellation did not stop the queue (%d/%d tasks ran)", workers, got, n)
		}
	}
}

// TestRunIndexedErrorBeatsCancel: when a task fails and the context is
// then cancelled by the caller's defer, the task error is what callers
// see — cancellation must not mask real failures.
func TestRunIndexedErrorBeatsCancel(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := runIndexed(ctx, 4, 50, func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
}

// TestConcaveStudyParallelMatchesSerial hammers the full experiment
// (shared rng in generation, parallel exact solves) across worker
// counts; the numeric results must be identical, not merely close.
func TestConcaveStudyParallelMatchesSerial(t *testing.T) {
	cfg := Config{Scale: 0.002, Seed: 9, Quick: true}
	setProcs(t, 1)
	want, err := ConcaveStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		setProcs(t, workers)
		got, err := ConcaveStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("workers=%d diverged:\n%+v\nwant\n%+v", workers, got, want)
		}
	}
}
