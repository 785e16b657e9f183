package pubsub

import (
	"os"
	"path/filepath"
	"testing"
)

// TestChaosDataDirOnDisk runs one faulted seed against real files and
// checks the on-disk layout appears where -data-dir points.
func TestChaosDataDirOnDisk(t *testing.T) {
	dir := t.TempDir()
	rep, err := RunChaos(ChaosConfig{Seed: 7, Steps: 30, CheckpointEvery: 5, DataDir: dir})
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
