package pubsub

import (
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// TestProbeDrainCountsMaintainerWork: a probe's Drain counts exactly the
// work units an ivm.New maintainer counts in ProcessBatch when it is fed
// the same modifications — each written live with ivm.ApplyLive and
// queued with ApplyDeferred. sales.station has no index, so a stations
// drain scans the sales replica: the view has the paper's unindexed side.
func TestProbeDrainCountsMaintainerWork(t *testing.T) {
	probeDB, refDB := salesDB(t), salesDB(t)
	p, err := NewProbe(probeDB, eastQuery)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ivm.New(refDB, eastQuery)
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]string{"s": "sales", "st": "stations"}
	sale := func(k, station int64, amount float64) storage.Row {
		return storage.Row{storage.I(k), storage.I(station), storage.F(amount)}
	}
	move := func(station int64, region string) ivm.Mod {
		return ivm.Update("st", []storage.Value{storage.I(station)}, storage.Row{storage.I(station), storage.S(region)})
	}
	steps := []struct {
		mods   []ivm.Mod
		drains map[string]int
	}{
		{[]ivm.Mod{
			ivm.Update("s", []storage.Value{storage.I(0)}, sale(0, 0, 25)),
			ivm.Insert("s", sale(100, 2, 7)),
			ivm.Delete("s", storage.I(4)),
			move(2, "WEST"),
			move(3, "EAST"),
		}, map[string]int{"s": 2, "st": 1}},
		{[]ivm.Mod{
			ivm.Update("s", []storage.Value{storage.I(5)}, sale(5, 6, 3)),
			move(6, "WEST"),
		}, map[string]int{"s": 2, "st": 2}},
		{[]ivm.Mod{move(1, "NORTH")}, map[string]int{"st": 1}},
	}
	var scanned uint64
	for i, step := range steps {
		for _, mod := range step.mods {
			if err := p.Apply(mod); err != nil {
				t.Fatal(err)
			}
			if err := ivm.ApplyLive(refDB, tables[mod.Alias], mod, true); err != nil {
				t.Fatal(err)
			}
			if err := ref.ApplyDeferred(mod); err != nil {
				t.Fatal(err)
			}
		}
		for _, alias := range []string{"s", "st"} {
			k := step.drains[alias]
			if k == 0 {
				continue
			}
			got, err := p.Drain(alias, k)
			if err != nil {
				t.Fatal(err)
			}
			before := *ref.Stats()
			if err := ref.ProcessBatch(alias, k); err != nil {
				t.Fatal(err)
			}
			if want := ref.Stats().Sub(before); got != want {
				t.Errorf("step %d: Drain(%s, %d) counted\n %+v, ProcessBatch\n %+v", i, alias, k, got, want)
			}
			if alias == "st" {
				scanned += got.HashBuildRows
			}
		}
	}
	if scanned == 0 {
		t.Error("no stations drain scanned the unindexed sales replica")
	}
	if got, want := storage.EncodeKey(p.Result()[0]...), storage.EncodeKey(ref.Result()[0]...); got != want {
		t.Errorf("probe view %q, maintainer view %q", got, want)
	}
	if string(probeDB.AppendSnapshot(nil)) != string(refDB.AppendSnapshot(nil)) {
		t.Error("the probe's live tables differ from the ones ApplyLive wrote")
	}
}

// TestProbeApplyValidation: an alias the view does not read is refused
// before any live table changes, and a key-changing update is refused by
// the broker's writer and not queued.
func TestProbeApplyValidation(t *testing.T) {
	db := salesDB(t)
	p, err := NewProbe(db, eastQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(ivm.Insert("x", storage.Row{storage.I(1)})); err == nil {
		t.Fatal("unknown alias accepted")
	}
	rekey := ivm.Update("s", []storage.Value{storage.I(0)}, storage.Row{storage.I(99), storage.I(0), storage.F(1)})
	if err := p.Apply(rekey); err == nil {
		t.Fatal("key-changing update accepted")
	}
	if pend := p.Pending(); pend[0] != 0 || pend[1] != 0 {
		t.Fatalf("refused modifications were queued: %v", pend)
	}
}
