package pubsub

import (
	"strings"
	"testing"

	"abivm/internal/durable"
	"abivm/internal/fault"
	"abivm/internal/obs"
)

// engineSeries reads every ivm_*, pubsub_* and policy_* counter value and
// histogram count off reg, keyed by series (labels included). Gauges —
// the ivm_dataflow_* shape among them — are levels, not event counts.
func engineSeries(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, m := range reg.Snapshot() {
		if !strings.HasPrefix(m.Name, "ivm_") && !strings.HasPrefix(m.Name, "pubsub_") && !strings.HasPrefix(m.Name, "policy_") {
			continue
		}
		switch m.Type {
		case "counter":
			out[m.Key()] = int64(m.Value)
		case "histogram":
			out[m.Key()] = m.Count
		}
	}
	return out
}

// copiedDurable reads the five disk-tier series the broker copies from
// its stores back as a durable.Stats.
func copiedDurable(s map[string]int64) durable.Stats {
	return durable.Stats{
		Syncs:       int(s["ivm_wal_sync_total"]),
		SyncBytes:   int(s["ivm_wal_sync_bytes_total"]),
		Corruptions: int(s["ivm_recovery_corruption_total"]),
		Quarantined: int(s["ivm_recovery_corruption_quarantined_total"]),
		Fallbacks:   int(s["ivm_recovery_corruption_fallbacks_total"]),
	}
}

// TestDiskRecoveryKeepsMaintainerSeries: a maintainer rebuilt from the
// disk tier's files counts its redo log, its truncations and its
// rollovers as the one it replaced did, so one crash leaves the per-step
// growth of those series exactly as a run without the crash has it.
func TestDiskRecoveryKeepsMaintainerSeries(t *testing.T) {
	names := []string{"ivm_wal_appends_total", "ivm_wal_truncations_total", "ivm_checkpoint_compactions_total"}
	const steps, crashStep = 30, 3
	spec := DefaultWorkloadSpec()
	script := chaosScript(1, steps, spec)
	run := func(crash bool) (growth [][]int64, recoveries int64) {
		t.Helper()
		b, err := NewRuntime(RuntimeConfig{Spec: spec, Opener: durable.MemOpener(), ChainDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		b.SetObs(reg, nil)
		b.SetCheckpointEvery(2)
		if crash {
			// The first subscription's turn in crashStep.
			b.SetInjector(&crashAt{at: map[int]bool{crashStep*len(b.Subscriptions()) + 1: true}})
		}
		prev := make([]int64, len(names))
		for step, evs := range script {
			for _, ev := range evs {
				if err := b.Publish(ev.table, ev.mod); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := b.EndStep(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			s := engineSeries(reg)
			row := make([]int64, len(names))
			for i, name := range names {
				row[i], prev[i] = s[name]-prev[i], s[name]
			}
			growth = append(growth, row)
		}
		return growth, engineSeries(reg)["ivm_recoveries_total"]
	}
	want, _ := run(false)
	got, recoveries := run(true)
	if recoveries != 1 {
		t.Fatalf("the crash run counted %d recoveries, want 1", recoveries)
	}
	for i, name := range names {
		after := int64(0)
		for step := crashStep; step < steps; step++ {
			after += want[step][i]
			if got[step][i] != want[step][i] {
				t.Errorf("%s grew by %d at step %d after a crash at step %d, %d without it",
					name, got[step][i], step, crashStep, want[step][i])
			}
		}
		if after == 0 {
			t.Errorf("%s never grows after step %d even without the crash: the check is vacuous", name, crashStep)
		}
	}
}

// seriesRun drives the chaos demo script of one seed on one variant under
// the seeded injector, checkpointing every 5 steps, with the registry
// attached before step attachAt, and returns the engine series before
// step snapAt (nil when snapAt is out of range) and at the end. After
// every step the five disk-tier series must equal what the stores
// counted since the registry was attached.
func seriesRun(t *testing.T, seed int64, variant string, attachAt, snapAt int) (snap, end map[string]int64) {
	t.Helper()
	spec := DefaultWorkloadSpec()
	cfg := RuntimeConfig{Spec: spec, ChainDepth: 1 + int(seed%4), Injector: fault.NewSeeded(seed, fault.DefaultRates())}
	switch variant {
	case "disk-faulted":
		cfg.Opener = durable.FaultyMemOpener(seed, fault.DefaultMediaRates())
	case "shared":
		cfg.Shared = true
	}
	b, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.SetCheckpointEvery(5)
	reg := obs.NewRegistry()
	var base durable.Stats
	for step, evs := range chaosScript(seed, 60, spec) {
		if step == attachAt {
			b.SetObs(reg, nil)
			base = b.DurabilityStats()
		}
		if step == snapAt {
			snap = engineSeries(reg)
		}
		for _, ev := range evs {
			if err := b.Publish(ev.table, ev.mod); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := b.EndStep(); err != nil {
			t.Fatalf("seed %d %s step %d: %v", seed, variant, step, err)
		}
		if step < attachAt {
			continue
		}
		want := b.DurabilityStats()
		want.Syncs -= base.Syncs
		want.SyncBytes -= base.SyncBytes
		want.Corruptions -= base.Corruptions
		want.Quarantined -= base.Quarantined
		want.Fallbacks -= base.Fallbacks
		if got := copiedDurable(engineSeries(reg)); got != want {
			t.Fatalf("seed %d %s step %d: disk-tier series %+v, stores counted %+v", seed, variant, step, got, want)
		}
	}
	return snap, engineSeries(reg)
}

// parentSeries are the series totals, summed over seeds 1–5, that the
// code before the broker counted drains and recoveries itself read on
// seriesRun (its policy_refreshes_total, always 0, is gone).
var parentSeries = map[string]map[string]int64{
	"memory": {
		"ivm_checkpoint_bytes":                                32,
		"ivm_checkpoint_compactions_total":                    32,
		"ivm_checkpoint_delta_bytes":                          72,
		"ivm_checkpoint_deltas_total":                         72,
		"ivm_checkpoint_seconds":                              104,
		"ivm_checkpoints_total":                               32,
		"ivm_drain_failures_total":                            26,
		"ivm_drain_latency_seconds":                           126,
		"ivm_drained_mods_total":                              1151,
		"ivm_drains_total":                                    152,
		"ivm_recoveries_total":                                19,
		"ivm_recovery_corruption_fallbacks_total":             0,
		"ivm_recovery_corruption_quarantined_total":           0,
		"ivm_recovery_corruption_total":                       0,
		"ivm_recovery_replayed_records":                       19,
		"ivm_wal_appends_total":                               1354,
		"ivm_wal_sync_bytes_total":                            0,
		"ivm_wal_sync_total":                                  0,
		"ivm_wal_truncations_total":                           104,
		`policy_action_mods{policy="ONLINE-M"}`:               0,
		`policy_candidates_total{policy="ONLINE-M"}`:          0,
		`policy_decisions_total{policy="ONLINE-M"}`:           0,
		"pubsub_crash_recoveries_total":                       19,
		"pubsub_degraded_notifications_total":                 0,
		"pubsub_degraded_sub_steps_total":                     0,
		"pubsub_notifications_total":                          65,
		"pubsub_publishes_total":                              614,
		"pubsub_refresh_cost":                                 65,
		"pubsub_retries_total":                                26,
		"pubsub_retry_giveups_total":                          0,
		"pubsub_step_latency_seconds":                         300,
		"pubsub_steps_total":                                  300,
		`pubsub_sub_degraded_notifications_total{sub="east"}`: 0,
		`pubsub_sub_degraded_notifications_total{sub="west"}`: 0,
		`pubsub_sub_notifications_total{sub="east"}`:          40,
		`pubsub_sub_notifications_total{sub="west"}`:          25,
	},
	"disk-faulted": {
		"ivm_checkpoint_bytes":                                36,
		"ivm_checkpoint_compactions_total":                    19,
		"ivm_checkpoint_delta_bytes":                          75,
		"ivm_checkpoint_deltas_total":                         75,
		"ivm_checkpoint_seconds":                              111,
		"ivm_checkpoints_total":                               36,
		"ivm_drain_failures_total":                            28,
		"ivm_drain_latency_seconds":                           124,
		"ivm_drained_mods_total":                              1077,
		"ivm_drains_total":                                    152,
		"ivm_recoveries_total":                                12,
		"ivm_recovery_corruption_fallbacks_total":             6,
		"ivm_recovery_corruption_quarantined_total":           9,
		"ivm_recovery_corruption_total":                       16,
		"ivm_recovery_replayed_records":                       12,
		"ivm_wal_appends_total":                               903,
		"ivm_wal_sync_bytes_total":                            34210,
		"ivm_wal_sync_total":                                  613,
		"ivm_wal_truncations_total":                           70,
		`policy_action_mods{policy="ONLINE-M"}`:               0,
		`policy_candidates_total{policy="ONLINE-M"}`:          0,
		`policy_decisions_total{policy="ONLINE-M"}`:           0,
		"pubsub_crash_recoveries_total":                       18,
		"pubsub_degraded_notifications_total":                 0,
		"pubsub_degraded_sub_steps_total":                     0,
		"pubsub_notifications_total":                          65,
		"pubsub_publishes_total":                              614,
		"pubsub_refresh_cost":                                 65,
		"pubsub_retries_total":                                28,
		"pubsub_retry_giveups_total":                          0,
		"pubsub_step_latency_seconds":                         300,
		"pubsub_steps_total":                                  300,
		`pubsub_sub_degraded_notifications_total{sub="east"}`: 0,
		`pubsub_sub_degraded_notifications_total{sub="west"}`: 0,
		`pubsub_sub_notifications_total{sub="east"}`:          40,
		`pubsub_sub_notifications_total{sub="west"}`:          25,
	},
	"shared": {
		"ivm_checkpoint_bytes":                                0,
		"ivm_checkpoint_compactions_total":                    0,
		"ivm_checkpoint_delta_bytes":                          0,
		"ivm_checkpoint_deltas_total":                         0,
		"ivm_checkpoint_seconds":                              0,
		"ivm_checkpoints_total":                               0,
		"ivm_drain_failures_total":                            26,
		"ivm_drain_latency_seconds":                           126,
		"ivm_drained_mods_total":                              1151,
		"ivm_drains_total":                                    152,
		"ivm_recoveries_total":                                19,
		"ivm_recovery_corruption_fallbacks_total":             0,
		"ivm_recovery_corruption_quarantined_total":           0,
		"ivm_recovery_corruption_total":                       0,
		"ivm_recovery_replayed_records":                       19,
		"ivm_wal_appends_total":                               0,
		"ivm_wal_sync_bytes_total":                            0,
		"ivm_wal_sync_total":                                  0,
		"ivm_wal_truncations_total":                           0,
		`policy_action_mods{policy="ONLINE-M"}`:               0,
		`policy_candidates_total{policy="ONLINE-M"}`:          0,
		`policy_decisions_total{policy="ONLINE-M"}`:           0,
		"pubsub_crash_recoveries_total":                       19,
		"pubsub_degraded_notifications_total":                 0,
		"pubsub_degraded_sub_steps_total":                     0,
		"pubsub_notifications_total":                          65,
		"pubsub_publishes_total":                              614,
		"pubsub_refresh_cost":                                 65,
		"pubsub_retries_total":                                26,
		"pubsub_retry_giveups_total":                          0,
		"pubsub_step_latency_seconds":                         300,
		"pubsub_steps_total":                                  300,
		`pubsub_sub_degraded_notifications_total{sub="east"}`: 0,
		`pubsub_sub_degraded_notifications_total{sub="west"}`: 0,
		`pubsub_sub_notifications_total{sub="east"}`:          40,
		`pubsub_sub_notifications_total{sub="west"}`:          25,
	},
}

// seriesChanged are the totals that read differently from parentSeries,
// its reading in the comment. That code stopped counting the appends,
// truncations and rollovers of a log and chain rebuilt by an exact disk
// recovery, and observed a replay of 0 for every shared recovery, which
// replays nothing.
var seriesChanged = map[string]map[string]int64{
	"disk-faulted": {
		"ivm_wal_appends_total":            1352, // 903
		"ivm_wal_truncations_total":        105,  // 70
		"ivm_checkpoint_compactions_total": 30,   // 19
	},
	"shared": {
		"ivm_recovery_replayed_records": 0, // 19
	},
}

// TestEngineSeriesCountedOnce pins where every engine series is counted:
// drains and recoveries by the broker, the disk tier's counters copied
// from the stores at each step's end, the redo log and checkpoints by the
// maintainer. Over the chaos demo script, seeds 1–5, on the per-view
// engine in memory and over damaged files and on the shared graph, every
// total equals parentSeries but for seriesChanged, and a registry
// attached mid-run counts exactly the events after it.
func TestEngineSeriesCountedOnce(t *testing.T) {
	for _, variant := range []string{"memory", "disk-faulted", "shared"} {
		total := map[string]int64{}
		for seed := int64(1); seed <= 5; seed++ {
			const mid = 30
			snap, end := seriesRun(t, seed, variant, 0, mid)
			for k, v := range end {
				total[k] += v
			}
			_, late := seriesRun(t, seed, variant, mid, -1)
			for k, v := range end {
				if got := late[k]; got != v-snap[k] {
					t.Errorf("seed %d %s: %s attached at step %d counted %d, want %d", seed, variant, k, mid, got, v-snap[k])
				}
			}
		}
		want := parentSeries[variant]
		for k := range total {
			if _, ok := want[k]; !ok {
				t.Errorf("%s: unexpected series %s", variant, k)
			}
		}
		for k, v := range want {
			if c, ok := seriesChanged[variant][k]; ok {
				v = c
			}
			if got, ok := total[k]; !ok || got != v {
				t.Errorf("%s: %s = %d (registered %v), want %d", variant, k, got, ok, v)
			}
		}
	}
}
