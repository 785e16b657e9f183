package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"abivm/internal/fault"
	"abivm/internal/pubsub"
)

// runChaos implements `abivm chaos`: it runs the seeded fault-injection
// harness for a range of seeds and reports, per seed, how many faults
// fired, how many notifications degraded, which recovery variants were
// compared (every variant runs on every seed: full checkpoints,
// incremental chains, shared and disk ones), and whether every faulted
// variant stayed byte-identical to the fault-free baseline. Any
// divergence is a fault-handling bug and makes the command exit nonzero.
//
//	abivm chaos -seed 1 -runs 50 -steps 60
//	abivm chaos -seed 1 -runs 5 -shards 4
//	abivm chaos -seed 1 -runs 50 -data-dir /tmp/abivm
func runChaos(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "first seed of the range")
	runs := fs.Int("runs", 1, "number of consecutive seeds to run")
	steps := fs.Int("steps", 60, "broker steps per run")
	cpEvery := fs.Int("checkpoint", 5, "checkpoint cadence in steps (0 disables)")
	shards := fs.Int("shards", 0, "run the sharded runtime with this many shards and per-shard fault streams (0 = serial broker)")
	dataDir := fs.String("data-dir", "", "root directory for the disk variants' WAL and checkpoint files (in-memory files if empty)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("chaos: -runs must be >= 1")
	}

	writeChaosHeader(os.Stdout)
	bad := 0
	for i := 0; i < *runs; i++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("chaos: interrupted after %d of %d runs: %w", i, *runs, err)
		}
		s := *seed + int64(i)
		rep, err := pubsub.RunChaos(pubsub.ChaosConfig{
			Seed: s, Steps: *steps, CheckpointEvery: *cpEvery, Shards: *shards, DataDir: *dataDir,
		})
		if err != nil {
			return fmt.Errorf("chaos: seed %d: %w", s, err)
		}
		writeChaosRow(os.Stdout, rep)
		if !rep.Identical {
			bad++
			fmt.Fprintf(os.Stderr, "seed %d diverged from the fault-free baseline:\n%s\n", s, rep.Diff)
		}
	}
	if bad > 0 {
		return fmt.Errorf("chaos: %d of %d runs diverged from their baselines", bad, *runs)
	}
	return nil
}

// writeChaosHeader writes the column header of the chaos table.
func writeChaosHeader(w io.Writer) {
	fmt.Fprintf(w, "%6s %7s %7s %9s %7s %6s %9s %10s  %s\n",
		"seed", "steps", "faults", "degraded", "crashes", "media", "diskfall", "identical", "variants")
}

// writeChaosRow writes one seed's row of the chaos table.
func writeChaosRow(w io.Writer, rep *pubsub.ChaosReport) {
	fmt.Fprintf(w, "%6d %7d %7d %9d %7d %6d %9d %10v  %s\n",
		rep.Seed, rep.Steps, rep.TotalFaults, rep.Degraded,
		rep.Faults[fault.SiteCrash], rep.TotalMediaFaults, rep.DiskStats.Fallbacks,
		rep.Identical, strings.Join(rep.Variants, " "))
}
