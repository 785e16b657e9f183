package pubsub

import (
	"os"
	"path/filepath"
	"testing"

	"abivm/internal/fault"
)

// TestChaosDiskCleanIdentity: with intact files, the disk-backed
// variant is held to the same standard as the in-memory recovery
// variants — every injected crash recovers byte-identically from the
// segment files, across several seeds and both runtimes.
func TestChaosDiskCleanIdentity(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		rep, err := RunChaos(ChaosConfig{Seed: int64(seed), Steps: 40, CheckpointEvery: 5, Disk: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Identical {
			t.Fatalf("seed %d: clean-disk variant diverged: %s", seed, rep.Diff)
		}
	}
}

// TestChaosDiskFaultSweep is the acceptance sweep: every seed runs the
// workload with byte-level media faults under the durable stores, and
// every seed must either recover byte-identically or degrade loudly —
// a full-refresh fallback with the corruption counted. Silent
// divergence (differing output with zero fallbacks) fails immediately.
// The trailing assertions keep the sweep honest: it must actually
// inject every damage kind, see at least one fallback, and see at
// least one run survive damage with exact output.
func TestChaosDiskFaultSweep(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	kinds := map[fault.MediaFault]int{}
	exact, inexact, fallbacks, corruptions := 0, 0, 0, 0
	for seed := 0; seed < seeds; seed++ {
		rep, err := RunChaos(ChaosConfig{Seed: int64(seed), Steps: 40, CheckpointEvery: 5, DiskFaults: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Identical {
			t.Fatalf("seed %d: %s", seed, rep.Diff)
		}
		if rep.TotalMediaFaults == 0 {
			t.Errorf("seed %d: media injector never fired", seed)
		}
		if rep.DiskExact {
			exact++
		} else {
			inexact++
			if rep.DiskStats.Fallbacks == 0 {
				t.Fatalf("seed %d: inexact disk recovery without a fallback", seed)
			}
			if rep.DiskStats.Corruptions == 0 {
				t.Errorf("seed %d: fallback recovery with zero corruption events", seed)
			}
		}
		fallbacks += rep.DiskStats.Fallbacks
		corruptions += rep.DiskStats.Corruptions
		for k, n := range rep.MediaFaults {
			kinds[k] += n
		}
	}
	t.Logf("sweep: %d seeds, %d exact, %d fallback-degraded, %d fallbacks, %d corruption events, media=%v",
		seeds, exact, inexact, fallbacks, corruptions, kinds)
	for _, kind := range []fault.MediaFault{fault.MediaTornAppend, fault.MediaBitFlip,
		fault.MediaTruncate, fault.MediaDropFile, fault.MediaSkipRename} {
		if kinds[kind] == 0 {
			t.Errorf("damage kind %s never injected across the sweep", kind)
		}
	}
	if fallbacks == 0 {
		t.Error("no seed exercised the full-refresh fallback rung")
	}
	if exact == 0 {
		t.Error("no seed survived media damage with exact output")
	}
	if corruptions == 0 {
		t.Error("no seed detected any corruption")
	}
}

// TestChaosDiskShardedSmoke exercises the disk variants on the sharded
// runtime: clean disk must stay identical, media damage must stay
// identical-or-loud, and the per-namespace media seeding keeps the
// outcome independent of goroutine scheduling.
func TestChaosDiskShardedSmoke(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rep, err := RunChaos(ChaosConfig{Seed: seed, Steps: 30, CheckpointEvery: 5, Shards: 2, Disk: true, DiskFaults: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Identical {
			t.Fatalf("seed %d: %s", seed, rep.Diff)
		}
		if !rep.DiskExact && rep.DiskStats.Fallbacks == 0 {
			t.Fatalf("seed %d: inexact sharded disk recovery without a fallback", seed)
		}
	}
}

// TestChaosDataDirOnDisk runs one faulted seed against real files and
// checks the on-disk layout appears where -data-dir points.
func TestChaosDataDirOnDisk(t *testing.T) {
	dir := t.TempDir()
	rep, err := RunChaos(ChaosConfig{Seed: 7, Steps: 30, CheckpointEvery: 5, DataDir: dir, DiskFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Identical {
		t.Fatalf("divergence: %s", rep.Diff)
	}
	man := filepath.Join(dir, "seed-7", "disk", "east", "MANIFEST")
	if _, err := os.Stat(man); err != nil {
		t.Fatalf("expected manifest at %s: %v", man, err)
	}
}
