package pubsub

import (
	"reflect"
	"testing"
	"time"

	"abivm/internal/fault"
	"abivm/internal/storage"
)

// backoffSeq draws the first n jittered backoffs from a fresh broker
// seeded (or not) with the given retry seed.
func backoffSeq(seed int64, seeded bool, n int) []time.Duration {
	b := NewBroker(storage.NewDB())
	if seeded {
		b.SetRetrySeed(seed)
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = b.backoff(i + 1)
	}
	return out
}

// TestBackoffJitterSeeded pins the jitter contract: seeded brokers draw
// identical backoff sequences for identical seeds, different sequences
// for different seeds, every jittered delay stays within
// [delay, delay*(1+Jitter)), and an unseeded broker gets the bare
// exponential with no jitter at all.
func TestBackoffJitterSeeded(t *testing.T) {
	const n = 12
	a, b := backoffSeq(7, true, n), backoffSeq(7, true, n)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different backoffs:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(a, backoffSeq(8, true, n)) {
		t.Error("seeds 7 and 8 produced identical jitter sequences")
	}

	pol := DefaultRetryPolicy()
	for i, d := range a {
		base := pol.delay(i + 1)
		if d < base || float64(d) >= float64(base)*(1+pol.Jitter) {
			t.Errorf("attempt %d: jittered backoff %v outside [%v, %v)", i+1, d, base,
				time.Duration(float64(base)*(1+pol.Jitter)))
		}
	}

	for i, d := range backoffSeq(0, false, n) {
		if want := pol.delay(i + 1); d != want {
			t.Errorf("unseeded attempt %d: backoff %v, want bare delay %v", i+1, d, want)
		}
	}
}

// sleepTrace runs the seeded demo workload under fault injection with
// the backoff sleeper replaced by a recorder, returning every sleep the
// retry loop requested.
func sleepTrace(t *testing.T, seed int64, steps int) []time.Duration {
	t.Helper()
	w, err := NewDemoWorkload(RuntimeConfig{Seed: seed, Spec: DefaultWorkloadSpec(),
		Injectors: SeededShardInjectors(seed, fault.DefaultRates())})
	if err != nil {
		t.Fatal(err)
	}
	var sleeps []time.Duration
	w.Broker.setSleep(func(d time.Duration) { sleeps = append(sleeps, d) })
	for i := 0; i < steps; i++ {
		if _, err := w.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return sleeps
}

// TestChaosBackoffSequenceReplayable is the determinism property the
// jitter design exists for: a faulted run's entire backoff sequence —
// fault schedule, retry count, and per-retry jittered sleep — is a pure
// function of the seed, so chaos replays stay byte-identical.
func TestChaosBackoffSequenceReplayable(t *testing.T) {
	const steps = 60
	first := sleepTrace(t, 3, steps)
	if len(first) == 0 {
		t.Fatal("no retries fired over the faulted run; the trace proves nothing")
	}
	if again := sleepTrace(t, 3, steps); !reflect.DeepEqual(first, again) {
		t.Errorf("same seed replayed a different backoff trace:\nfirst: %v\nagain: %v", first, again)
	}
	if other := sleepTrace(t, 4, steps); reflect.DeepEqual(first, other) {
		t.Error("different seeds produced identical backoff traces")
	}
}
