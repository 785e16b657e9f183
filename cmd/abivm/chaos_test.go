package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"abivm/internal/fault"
	"abivm/internal/pubsub"
)

// TestChaosTranscripts is the chaos harness's acceptance sweep. It runs
// the two committed `abivm chaos -seed 1` sweeps, renders them with
// the command's own row writer and diffs each against its transcript
// under testdata/chaos: every seed runs every recovery variant, and
// every row must read identical. Over the reports it then checks that
// the sweeps are not vacuous — the faults and media damage they claim
// to survive actually fired. A change that means to move a fault
// schedule regenerates a transcript with
// `go run ./cmd/abivm chaos -seed 1 <flags> > cmd/abivm/testdata/chaos/<file>`.
func TestChaosTranscripts(t *testing.T) {
	allSites := []fault.Site{fault.SiteDrainPlan, fault.SiteDrainApply,
		fault.SiteWALCommit, fault.SiteCheckpoint, fault.SiteCrash}
	for _, tc := range []struct {
		file  string
		flags string
		cfg   pubsub.ChaosConfig
		runs  int
		// fired are the fault sites that must fire somewhere in the
		// sweep, silent the ones that must never fire.
		fired, silent []fault.Site
		// wantExact: some seed survives media damage with exact output.
		wantExact bool
	}{
		{file: "runs50.txt", flags: "-runs 50", runs: 50,
			cfg:   pubsub.ChaosConfig{Steps: 60, CheckpointEvery: 5},
			fired: allSites, wantExact: true},
		// With periodic checkpoints off the checkpoint site is never
		// polled, and every crash replays the whole WAL from the
		// Subscribe-time checkpoint.
		{file: "runs50-checkpoint0.txt", flags: "-runs 50 -checkpoint 0", runs: 50,
			cfg:    pubsub.ChaosConfig{Steps: 60},
			silent: []fault.Site{fault.SiteCheckpoint}, wantExact: true},
	} {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			t.Parallel()
			var out strings.Builder
			writeChaosHeader(&out)
			sites := map[fault.Site]int{}
			kinds := map[fault.MediaFault]int{}
			exact, fallbacks := 0, 0
			for i := 0; i < tc.runs; i++ {
				cfg := tc.cfg
				cfg.Seed = 1 + int64(i)
				rep, err := pubsub.RunChaos(cfg)
				if err != nil {
					t.Fatal(err)
				}
				writeChaosRow(&out, rep)
				if !rep.Identical {
					t.Errorf("seed %d diverged: %s", cfg.Seed, rep.Diff)
				}
				if rep.Notifications == 0 {
					t.Errorf("seed %d: no notifications — vacuous comparison", cfg.Seed)
				}
				if rep.Degraded != 0 {
					// The Seeded injector's burst cap is below the
					// broker's retry budget, so degradation means
					// retry/rollback accounting is broken.
					t.Errorf("seed %d: %d degraded notifications under capped transient faults", cfg.Seed, rep.Degraded)
				}
				if rep.TotalMediaFaults == 0 {
					t.Errorf("seed %d: media injector never fired", cfg.Seed)
				}
				if rep.DiskExact {
					exact++
				} else if rep.DiskStats.Fallbacks == 0 || rep.DiskStats.Corruptions == 0 {
					t.Errorf("seed %d: inexact disk recovery with %d fallbacks and %d corruptions counted",
						cfg.Seed, rep.DiskStats.Fallbacks, rep.DiskStats.Corruptions)
				}
				fallbacks += rep.DiskStats.Fallbacks
				for s, n := range rep.Faults {
					sites[s] += n
				}
				for k, n := range rep.MediaFaults {
					kinds[k] += n
				}
			}

			t.Logf("%d seeds: faults %v, media damage %v, %d exact disk-faulted runs, %d fallbacks",
				tc.runs, sites, kinds, exact, fallbacks)
			want, err := os.ReadFile(filepath.Join("testdata", "chaos", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("`abivm chaos -seed 1 %s` no longer prints %s; it prints:\n%s", tc.flags, tc.file, got)
			}
			for _, s := range tc.fired {
				if sites[s] == 0 {
					t.Errorf("fault site %s never fired across the sweep", s)
				}
			}
			for _, s := range tc.silent {
				if sites[s] != 0 {
					t.Errorf("fault site %s fired %d times", s, sites[s])
				}
			}
			for _, k := range []fault.MediaFault{fault.MediaTornAppend, fault.MediaBitFlip,
				fault.MediaTruncate, fault.MediaDropFile, fault.MediaSkipRename} {
				if kinds[k] == 0 {
					t.Errorf("media damage %s never injected across the sweep", k)
				}
			}
			if fallbacks == 0 {
				t.Error("no seed exercised the full-refresh fallback")
			}
			if tc.wantExact && exact == 0 {
				t.Error("no seed survived media damage with exact output")
			}
		})
	}
}
