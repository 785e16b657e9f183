package pubsub

import (
	"strings"
	"testing"

	"abivm/internal/core"
	"abivm/internal/durable"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/obs"
	"abivm/internal/storage"
)

// engineSeries reads every ivm_*, pubsub_* and policy_* counter value and
// histogram count off reg, keyed by series (labels included). Gauges are
// levels, not event counts, and the ivm_dataflow_* series are the shared
// graph's, not the engines'.
func engineSeries(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, m := range reg.Snapshot() {
		if !strings.HasPrefix(m.Name, "ivm_") && !strings.HasPrefix(m.Name, "pubsub_") && !strings.HasPrefix(m.Name, "policy_") ||
			strings.HasPrefix(m.Name, "ivm_dataflow_") {
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

// levels reads every gauge off reg, keyed by series (labels included).
func levels(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, m := range reg.Snapshot() {
		if m.Type == "gauge" {
			out[m.Key()] = m.Value
		}
	}
	return out
}

// TestSubGaugesReadHealth: after every step, each pubsub_sub_* level of
// every subscription is what Health reports for it — steps behind,
// pending modifications summed, the degraded flag, retained redo-log
// records — and its cost overshoot is how far the pending refresh cost
// exceeds C while it is degraded, on the classic, the shared and a
// 2-shard broker. Every drain fails from step 10 to step 24, so the
// subscriptions, the demo's under a tighter C, degrade with a backlog
// past C, then heal.
func TestSubGaugesReadHealth(t *testing.T) {
	const steps, faultFrom, faultTo, qos = 40, 10, 25, 8.0
	spec := DefaultWorkloadSpec()
	script := chaosScript(2, steps, spec)
	subs, err := demoSubscriptionsSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	subscribe := func(b interface{ Subscribe(Subscription) error }) {
		for _, sc := range subs {
			sc.QoS = qos
			if err := b.Subscribe(sc); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, rt := range []string{"classic", "shared", "sharded-2"} {
		t.Run(rt, func(t *testing.T) {
			var (
				br    stepper
				each  func(func(*Broker))
				owner func(string) (*Broker, error)
			)
			if rt == "sharded-2" {
				db, err := DemoDB(spec)
				if err != nil {
					t.Fatal(err)
				}
				sb := NewShardedBroker(db, ShardOptions{Shards: 2})
				subscribe(sb)
				br, each, owner = sb, sb.each, sb.ownerBroker
			} else {
				b, err := NewRuntime(RuntimeConfig{Spec: spec, Shared: rt == "shared", Subscribe: func(_ *storage.DB, b *Broker) error {
					subscribe(b)
					return nil
				}})
				if err != nil {
					t.Fatal(err)
				}
				br, each = b, func(f func(*Broker)) { f(b) }
				owner = func(string) (*Broker, error) { return b, nil }
			}
			reg := obs.NewRegistry()
			each(func(b *Broker) { b.SetObs(reg, nil) })
			degradedSteps, overshoots := 0, 0
			for step, evs := range script {
				switch step {
				case faultFrom:
					each(func(b *Broker) { b.SetInjector(fault.AlwaysAt(fault.SiteDrainPlan)) })
				case faultTo:
					each(func(b *Broker) { b.SetInjector(nil) })
				}
				for _, ev := range evs {
					if err := br.Publish(ev.table, ev.mod); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := br.EndStep(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				got := levels(reg)
				for _, sc := range subs {
					b, err := owner(sc.Name)
					if err != nil {
						t.Fatal(err)
					}
					h, err := b.Health(sc.Name)
					if err != nil {
						t.Fatal(err)
					}
					degraded, over := 0.0, 0.0
					if h.Degraded {
						degraded, over = 1, max(sc.Model.Total(h.Pending)-qos, 0)
						degradedSteps++
					}
					if over > 0 {
						overshoots++
					}
					for name, want := range map[string]float64{
						"pubsub_sub_steps_behind":   float64(h.StepsBehind),
						"pubsub_sub_pending_mods":   float64(core.Vector(h.Pending).Sum()),
						"pubsub_sub_degraded":       degraded,
						"pubsub_sub_wal_records":    float64(h.WALRecords),
						"pubsub_sub_cost_overshoot": over,
					} {
						key := name + `{sub="` + sc.Name + `"}`
						if v, ok := got[key]; !ok || v != want {
							t.Errorf("step %d: %s = %v (registered %v), Health says %v", step, key, v, ok, want)
						}
					}
				}
			}
			if degradedSteps == 0 || overshoots == 0 {
				t.Fatalf("%d degraded subscription-steps, %d with a cost overshoot: the check is vacuous", degradedSteps, overshoots)
			}
		})
	}
}

// TestRefreshShowsInSubGauges: a Refresh between steps brings the
// subscription up to date, and its levels say so at once — they read the
// subscription, not a copy made at the last step's end.
func TestRefreshShowsInSubGauges(t *testing.T) {
	spec := DefaultWorkloadSpec()
	b, err := NewRuntime(RuntimeConfig{Spec: spec, Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	b.SetObs(reg, nil)
	for step, evs := range chaosScript(3, 5, spec) {
		for _, ev := range evs {
			if err := b.Publish(ev.table, ev.mod); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := b.EndStep(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	const pending = `pubsub_sub_pending_mods{sub="east"}`
	if got := levels(reg)[pending]; got == 0 {
		t.Fatalf("%s = 0 before the refresh: the check is vacuous", pending)
	}
	if _, err := b.Refresh("east"); err != nil {
		t.Fatal(err)
	}
	h, err := b.Health("east")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := levels(reg)[pending], float64(core.Vector(h.Pending).Sum()); got != 0 || want != 0 {
		t.Errorf("after Refresh: %s = %v, Health says %v pending, want 0", pending, got, h.Pending)
	}
}

// diskSeries reads the five disk-tier series back as a durable.Stats.
func diskSeries(s map[string]int64) durable.Stats {
	return durable.Stats{
		Syncs:       int(s["ivm_wal_sync_total"]),
		SyncBytes:   int(s["ivm_wal_sync_bytes_total"]),
		Corruptions: int(s["ivm_recovery_corruption_total"]),
		Quarantined: int(s["ivm_recovery_corruption_quarantined_total"]),
		Fallbacks:   int(s["ivm_recovery_corruption_fallbacks_total"]),
	}
}

// grownSince is what the stores counted between at and st.
func grownSince(st, at durable.Stats) durable.Stats {
	return durable.Stats{
		Syncs:       st.Syncs - at.Syncs,
		SyncBytes:   st.SyncBytes - at.SyncBytes,
		Corruptions: st.Corruptions - at.Corruptions,
		Quarantined: st.Quarantined - at.Quarantined,
		Fallbacks:   st.Fallbacks - at.Fallbacks,
	}
}

// TestShardedDiskSeriesSumShards: on a 2-shard broker whose
// subscriptions keep disk stores over damaged media and crash now and
// then, the five disk-tier series read, after every step, what the
// stores of both shards counted since the registry was attached — each
// shard's broker reports its own stores' growth, and the registry sums
// the two.
func TestShardedDiskSeriesSumShards(t *testing.T) {
	const seed, steps, attachAt = 3, 60, 10
	spec := DefaultWorkloadSpec()
	sb, _ := newSharded(t, spec, 2, durable.FaultyMemOpener(seed, fault.DefaultMediaRates()))
	defer sb.Close()
	sb.SetCheckpointEvery(5)
	shard := int64(0)
	sb.each(func(b *Broker) {
		shard++
		b.SetInjector(fault.NewSeeded(seed*10+shard, fault.DefaultRates()))
	})
	reg := obs.NewRegistry()
	var base []durable.Stats
	for step, evs := range chaosScript(seed, steps, spec) {
		if step == attachAt {
			sb.SetObs(reg, nil)
			sb.each(func(b *Broker) { base = append(base, b.DurabilityStats()) })
		}
		for _, ev := range evs {
			if err := sb.Publish(ev.table, ev.mod); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sb.EndStep(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step < attachAt {
			continue
		}
		var want durable.Stats
		i := 0
		sb.each(func(b *Broker) {
			want.Add(grownSince(b.DurabilityStats(), base[i]))
			i++
		})
		if got := diskSeries(engineSeries(reg)); got != want {
			t.Fatalf("step %d: disk-tier series %+v, the shards' stores counted %+v since attach", step, got, want)
		}
		if step == steps-1 && (want.Syncs == 0 || want.Corruptions == 0 || base[0].Syncs == 0 || base[1].Syncs == 0) {
			t.Fatalf("%+v since attach, %+v before: the check is vacuous", want, base)
		}
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
		b, err := NewRuntime(RuntimeConfig{Spec: spec, Opener: durable.MemOpener()})
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

// TestChainRollsOverAtDefaultDepth: a per-view engine's checkpoint chain
// takes ivm.DefaultChainDepth delta segments after its base, on either
// durability tier, so of one subscription's checkpoints every fifth rolls
// over to a fresh base: one rollover after 5 checkpoints, two after 10.
func TestChainRollsOverAtDefaultDepth(t *testing.T) {
	spec := DefaultWorkloadSpec()
	subscribeOne := func(_ *storage.DB, b *Broker) error {
		subs, err := demoSubscriptionsSpec(spec)
		if err != nil {
			return err
		}
		return b.Subscribe(subs[0])
	}
	for _, tier := range []struct {
		name string
		open durable.Opener
	}{{"memory", nil}, {"disk", durable.MemOpener()}} {
		b, err := NewRuntime(RuntimeConfig{Spec: spec, Opener: tier.open, Subscribe: subscribeOne})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		b.SetObs(reg, nil)
		b.SetCheckpointEvery(1)
		for step, evs := range chaosScript(1, 10, spec) {
			for _, ev := range evs {
				if err := b.Publish(ev.table, ev.mod); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := b.EndStep(); err != nil {
				t.Fatalf("%s step %d: %v", tier.name, step, err)
			}
			s, checkpoints := engineSeries(reg), int64(step+1)
			if got := s["ivm_checkpoint_deltas_total"] + s["ivm_checkpoint_compactions_total"]; got != checkpoints {
				t.Fatalf("%s: %d delta segments and rollovers after %d checkpoints", tier.name, got, checkpoints)
			}
			if got, want := s["ivm_checkpoint_compactions_total"], checkpoints/(ivm.DefaultChainDepth+1); got != want {
				t.Errorf("%s: %d rollovers after %d checkpoints, want %d", tier.name, got, checkpoints, want)
			}
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
	cfg := RuntimeConfig{Spec: spec, Injector: fault.NewSeeded(seed, fault.DefaultRates())}
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
		want := grownSince(b.DurabilityStats(), base)
		if got := diskSeries(engineSeries(reg)); got != want {
			t.Fatalf("seed %d %s step %d: disk-tier series %+v, stores counted %+v", seed, variant, step, got, want)
		}
	}
	return snap, engineSeries(reg)
}

// parentSeries are the series totals, summed over seeds 1–5, that the
// code before the broker counted drains and recoveries itself read on
// seriesRun with its chain depth at ivm.DefaultChainDepth (its
// policy_refreshes_total, always 0, is gone).
var parentSeries = map[string]map[string]int64{
	"memory": {
		"ivm_checkpoint_bytes":                                17,
		"ivm_checkpoint_compactions_total":                    17,
		"ivm_checkpoint_delta_bytes":                          87,
		"ivm_checkpoint_deltas_total":                         87,
		"ivm_checkpoint_seconds":                              104,
		"ivm_checkpoints_total":                               17,
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
		"ivm_checkpoint_bytes":                                20,
		"ivm_checkpoint_compactions_total":                    7,
		"ivm_checkpoint_delta_bytes":                          92,
		"ivm_checkpoint_deltas_total":                         92,
		"ivm_checkpoint_seconds":                              112,
		"ivm_checkpoints_total":                               20,
		"ivm_drain_failures_total":                            26,
		"ivm_drain_latency_seconds":                           124,
		"ivm_drained_mods_total":                              1077,
		"ivm_drains_total":                                    150,
		"ivm_recoveries_total":                                10,
		"ivm_recovery_corruption_fallbacks_total":             8,
		"ivm_recovery_corruption_quarantined_total":           25,
		"ivm_recovery_corruption_total":                       34,
		"ivm_recovery_replayed_records":                       10,
		"ivm_wal_appends_total":                               878,
		"ivm_wal_sync_bytes_total":                            34201,
		"ivm_wal_sync_total":                                  613,
		"ivm_wal_truncations_total":                           69,
		`policy_action_mods{policy="ONLINE-M"}`:               0,
		`policy_candidates_total{policy="ONLINE-M"}`:          0,
		`policy_decisions_total{policy="ONLINE-M"}`:           0,
		"pubsub_crash_recoveries_total":                       18,
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
		"ivm_wal_appends_total":            1352, // 878
		"ivm_wal_truncations_total":        104,  // 69
		"ivm_checkpoint_compactions_total": 12,   // 7
	},
	"shared": {
		"ivm_recovery_replayed_records": 0, // 19
	},
}

// TestEngineSeriesCountedOnce pins where every engine series is counted:
// drains and recoveries by the broker, the disk tier's counters by the
// stores (the broker reports them at the scrape), the redo log and checkpoints by the
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

// TestInternerGaugesReportedOnce: the process's string interner is
// reported as two levels that equal storage.InternStats at the scrape,
// once per registry however many brokers attach — a 2-shard broker
// does not double them.
func TestInternerGaugesReportedOnce(t *testing.T) {
	sb, _ := newSharded(t, DefaultWorkloadSpec(), 2, nil)
	defer sb.Close()
	reg := obs.NewRegistry()
	sb.SetObs(reg, nil)
	storage.S(t.Name()) // grows the interner after attach: the levels are read at the scrape
	got := levels(reg)
	n, bytes := storage.InternStats()
	if got["ivm_storage_interned_strings"] != float64(n) || got["ivm_storage_interned_bytes"] != float64(bytes) {
		t.Fatalf("interner levels strings=%v bytes=%v, InternStats says (%d, %d)",
			got["ivm_storage_interned_strings"], got["ivm_storage_interned_bytes"], n, bytes)
	}
}
