package pubsub

import (
	"os"
	"path/filepath"
	"testing"

	"abivm/internal/durable"
	"abivm/internal/fault"
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

// TestSubscribeKeepsStoresInDataDir: a subscription's name is its
// store's namespace, and neither directory opener lets it name a
// directory outside the opener's root. A name that climbs out ("..") or
// is absolute is refused at Subscribe and creates nothing; a nested name
// ("eu/east") stays legal and lands under the root.
func TestSubscribeKeepsStoresInDataDir(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(root string) durable.Opener
	}{
		{"DirOpener", durable.DirOpener},
		{"FaultyDirOpener", func(root string) durable.Opener {
			return durable.FaultyDirOpener(root, 1, fault.MediaRates{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			root := filepath.Join(dir, "data")
			db, err := chaosDB()
			if err != nil {
				t.Fatal(err)
			}
			b := NewBroker(db)
			b.SetStoreOpener(tc.open(root))
			subscribe := func(name string) error {
				model, err := chaosModel()
				if err != nil {
					t.Fatal(err)
				}
				return b.Subscribe(Subscription{Name: name, Query: regionQuery("EAST"),
					Condition: Every(5), Model: model, QoS: chaosQoS})
			}
			for _, name := range []string{"../escaped", "a/../../escaped", "/abs"} {
				if err := subscribe(name); err == nil {
					t.Errorf("Subscribe(%q) over a directory opener succeeded", name)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "escaped")); !os.IsNotExist(err) {
				t.Errorf("a refused subscription created %s (stat: %v)", filepath.Join(dir, "escaped"), err)
			}
			if err := subscribe("eu/east"); err != nil {
				t.Fatalf("nested namespace: %v", err)
			}
			if _, err := os.Stat(filepath.Join(root, "eu", "east", "MANIFEST")); err != nil {
				t.Fatalf("nested namespace's store is not under the root: %v", err)
			}
			if got := b.Subscriptions(); len(got) != 1 {
				t.Fatalf("registered %v, want only the nested one", got)
			}
		})
	}
}
