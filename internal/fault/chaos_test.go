// Chaos harness: randomized seeded fault schedules against the pub/sub
// maintenance runtime. The core property — the acceptance bar of the
// fault-tolerance subsystem — is that for every seed, the faulted-and-
// recovered run produces byte-identical notifications and final view
// contents to the fault-free run, and every non-degraded notification
// still satisfies its subscription's QoS bound C (the per-notification
// bound is asserted inside pubsub.RunChaos).
//
// The test lives in package fault_test so the leaf fault package can be
// imported by every runtime layer while its chaos suite exercises the
// full stack.
package fault_test

import (
	"fmt"
	"testing"

	"abivm/internal/fault"
	"abivm/internal/pubsub"
)

// TestChaosDeterminism runs seeds 1–50 at checkpoint interval 5, one
// subtest per seed, so a diverging seed fails under its own name. The
// same sweep is `abivm chaos -seed 1 -runs 50`, whose transcript
// cmd/abivm's TestChaosTranscripts diffs.
func TestChaosDeterminism(t *testing.T) {
	const seeds = 50
	type tally struct {
		faults   int
		degraded int
		fired    map[fault.Site]int
	}
	results := make([]tally, seeds)
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rep, err := pubsub.RunChaos(pubsub.ChaosConfig{Seed: seed, CheckpointEvery: 5})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !rep.Identical {
				t.Errorf("seed %d: faulted run diverged from baseline:\n%s", seed, rep.Diff)
			}
			if rep.Degraded != 0 {
				// The Seeded injector's burst cap is below the broker's
				// retry budget, so degradation here means retry/rollback
				// accounting is broken.
				t.Errorf("seed %d: %d degraded notifications under capped transient faults", seed, rep.Degraded)
			}
			if rep.Notifications == 0 {
				t.Errorf("seed %d: no notifications — vacuous comparison", seed)
			}
			results[seed-1] = tally{faults: rep.TotalFaults, degraded: rep.Degraded, fired: rep.Faults}
		})
	}
	t.Cleanup(func() {
		total := 0
		perSite := map[fault.Site]int{}
		for _, r := range results {
			total += r.faults
			for s, n := range r.fired {
				perSite[s] += n
			}
		}
		// Non-vacuity: the schedules must actually exercise every site,
		// crashes included.
		if total == 0 {
			t.Error("no faults injected across all seeds — chaos suite is vacuous")
		}
		for _, site := range []fault.Site{
			fault.SiteDrainPlan, fault.SiteDrainApply, fault.SiteWALCommit,
			fault.SiteCheckpoint, fault.SiteCrash,
		} {
			if perSite[site] == 0 {
				t.Errorf("site %s never fired across %d seeds", site, len(results))
			}
		}
		t.Logf("chaos: %d seeds, %d faults injected %v", len(results), total, perSite)
	})
}
