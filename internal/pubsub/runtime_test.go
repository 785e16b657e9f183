package pubsub

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"abivm/internal/durable"
)

// TestRuntimeMatrix builds every engine × broker × durability-tier
// combination through NewRuntime and runs the same fault-free scripted
// workload on each: whichever runtime is behind the surface, the
// notifications, final contents and accumulated costs are byte-identical
// to per-view maintainers on the serial broker with in-memory
// durability. The one combination that does not exist — the shared graph
// on disk — must be refused, not silently run in memory.
func TestRuntimeMatrix(t *testing.T) {
	const seed, steps = 3, 40
	spec := ScaledWorkloadSpec(4)
	script := chaosScript(seed, steps, spec)
	want := runScript(t, script, RuntimeConfig{Spec: spec})
	if !strings.Contains(want, "step=") {
		t.Fatal("reference run delivered no notification — vacuous comparison")
	}
	for _, shared := range []bool{false, true} {
		for _, shards := range []int{0, 1, 2} {
			for _, disk := range []bool{false, true} {
				cfg := RuntimeConfig{Spec: spec, Shards: shards, Shared: shared}
				name := map[bool]string{false: "classic", true: "shared"}[shared]
				if shards == 0 {
					name += "/serial"
				} else {
					name += fmt.Sprintf("/shards=%d", shards)
				}
				if disk {
					cfg.Opener = durable.MemOpener()
					name += "/store"
				} else {
					name += "/memory"
				}
				t.Run(name, func(t *testing.T) {
					if shared && disk {
						if _, err := NewRuntime(cfg); !errors.Is(err, errSharedStore) {
							t.Fatalf("shared dataflow over a store opener: err = %v, want the guard error", err)
						}
						return
					}
					if got := runScript(t, script, cfg); got != want {
						t.Fatalf("diverged from classic/serial/memory:\n%s", firstDiff(want, got))
					}
				})
			}
		}
	}
}
