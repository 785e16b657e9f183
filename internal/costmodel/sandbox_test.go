package costmodel

import (
	"reflect"
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
	"abivm/internal/tpcr"
)

func sandboxDB(t *testing.T) *storage.DB {
	t.Helper()
	cfg := tpcr.DefaultConfig()
	cfg.ScaleFactor = 0.002
	db := storage.NewDB()
	if err := tpcr.Generate(db, cfg); err != nil {
		t.Fatal(err)
	}
	return db
}

// snapshot captures every table's rows keyed by encoded primary key.
func snapshot(db *storage.DB) map[string]map[string]string {
	out := map[string]map[string]string{}
	for _, name := range db.TableNames() {
		tbl := db.MustTable(name)
		rows := map[string]string{}
		tbl.Scan(func(r storage.Row) bool {
			rows[storage.EncodeKey(r.Project(tbl.Schema().Key)...)] = storage.EncodeKey(r...)
			return true
		})
		out[name] = rows
	}
	return out
}

// TestSandboxDoesNotMutateSource is the isolation guarantee: calibrating
// inside a sandbox leaves the database it was built from byte-identical.
func TestSandboxDoesNotMutateSource(t *testing.T) {
	db := sandboxDB(t)
	before := snapshot(db)
	sb, err := NewSandbox(db, tpcr.PaperView, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, alias := range sb.p.Aliases() {
		if _, err := sb.Measure(alias, []int{1, 4, 8}, storage.DefaultWeights()); err != nil {
			t.Fatalf("Measure(%s): %v", alias, err)
		}
	}
	if after := snapshot(db); !reflect.DeepEqual(before, after) {
		t.Fatal("calibration mutated the source database")
	}
}

// TestSandboxWorkloadIsPureUpdates: table sizes in the scratch database
// stay constant across calibration (the paper's update workload).
func TestSandboxWorkloadIsPureUpdates(t *testing.T) {
	db := sandboxDB(t)
	sb, err := NewSandbox(db, tpcr.PaperView, 7)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{}
	for _, name := range db.TableNames() {
		sizes[name] = db.MustTable(name).Len()
	}
	alias := sb.p.Aliases()[0]
	if _, err := sb.Measure(alias, []int{1, 8, 16}, storage.DefaultWeights()); err != nil {
		t.Fatal(err)
	}
	for _, src := range sb.p.Plan().Sources {
		name := src.Table
		if want, ok := sizes[name]; ok {
			if got := mustLen(t, sb, name); got != want {
				t.Errorf("table %s: %d rows after calibration, want %d", name, got, want)
			}
		}
	}
}

func mustLen(t *testing.T, sb *Sandbox, name string) int {
	t.Helper()
	tbl, err := sb.db.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Len()
}

// TestSandboxDeterminism: same source, query, and seed produce
// byte-identical mod streams and measurements.
func TestSandboxDeterminism(t *testing.T) {
	db := sandboxDB(t)
	run := func() []*Measurement {
		sb, err := NewSandbox(db, tpcr.PaperView, 42)
		if err != nil {
			t.Fatal(err)
		}
		var out []*Measurement
		for _, alias := range sb.p.Aliases() {
			ms, err := sb.Measure(alias, []int{1, 4, 8, 16}, storage.DefaultWeights())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ms)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different measurements:\n%v\n%v", a, b)
	}
	sb, err := NewSandbox(db, tpcr.PaperView, 43)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := sb.Measure(sb.p.Aliases()[0], []int{1, 4, 8, 16}, storage.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a[0], ms) {
		t.Log("different seed produced identical measurements (possible but suspicious)")
	}
}

// TestCalibrationIgnoresCheckpoints: checkpoints are bookkeeping, so a
// calibration whose maintainer is checkpointed between samples — base,
// deltas and a rollover — fits the same curve and ends on bit-identical
// work-unit counters as one that never checkpoints.
func TestCalibrationIgnoresCheckpoints(t *testing.T) {
	db := sandboxDB(t)
	run := func(checkpoint bool) ([]*Measurement, storage.Stats) {
		sb, err := NewSandbox(db, tpcr.PaperView, 42)
		if err != nil {
			t.Fatal(err)
		}
		chain := ivm.NewCheckpointChain(1)
		var out []*Measurement
		for _, alias := range sb.p.Aliases() {
			for _, ks := range [][]int{{1, 4}, {8, 16}} {
				ms, err := sb.Measure(alias, ks, storage.DefaultWeights())
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, ms)
				if checkpoint {
					if err := chain.Checkpoint(sb.p.Maintainer); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return out, *sb.p.Stats()
	}
	plain, plainStats := run(false)
	cp, cpStats := run(true)
	if !reflect.DeepEqual(plain, cp) {
		t.Fatalf("checkpoints changed the measured curves:\n%v\n%v", plain, cp)
	}
	if plainStats != cpStats {
		t.Fatalf("checkpoints charged work to the calibrated counters: %+v", cpStats.Sub(plainStats))
	}
}
