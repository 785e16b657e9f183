// Package fault provides deterministic, seeded fault injection for the
// maintenance runtime. The broker and maintainer call Injector.Hit at
// named sites on their hot paths; an injector decides — reproducibly,
// from a seed — whether that operation fails this time. The package has
// no dependencies on the rest of the module, so any layer can accept an
// Injector without import cycles.
//
// Fault kinds mirror the failures a long-lived maintenance service must
// survive (cf. DESIGN.md "Fault model & recovery"):
//
//   - transient drain failures (KindTransient) — a batch drain aborts
//     before mutating anything; a bounded retry clears it. Slow applies
//     that blow the step budget are modeled the same way: in a
//     step-bounded runtime, "too slow" and "failed this attempt" are
//     indistinguishable to the scheduler.
//   - partial applies (KindPartial) — a drain fails mid-mutation; the
//     maintainer must roll back to the pre-action state before retrying.
//   - crashes (KindCrash) — the maintainer loses all in-memory delta
//     state and must recover from its checkpoint plus the write-ahead
//     log.
//
// The Seeded injector bounds consecutive failures per site (MaxRun), so
// a retry budget larger than the sum of per-site bounds (MaxAttempts) is
// guaranteed to clear every transient fault — the foundation of the chaos
// harness's byte-identical determinism property.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Site names a fault-injection point in the maintenance runtime.
type Site string

// Injection sites threaded through the maintainer and broker.
const (
	// SiteDrainPlan fires at the start of a batch drain, before any state
	// is mutated — a transient failure with nothing to undo.
	SiteDrainPlan Site = "drain.plan"
	// SiteDrainApply fires mid-drain, after replica deletions have been
	// applied but before insertions — the rollback-exercising site.
	SiteDrainApply Site = "drain.apply"
	// SiteWALCommit fires just before the drain-commit record is written
	// to the write-ahead log; the drain must roll back when it fails.
	SiteWALCommit Site = "wal.commit"
	// SiteCheckpoint fires when the broker attempts a periodic
	// checkpoint; a failure skips the checkpoint (recovery just replays a
	// longer WAL suffix).
	SiteCheckpoint Site = "checkpoint"
	// SiteCrash is polled by the broker once per subscription per step; a
	// hit simulates a maintainer crash followed by recovery.
	SiteCrash Site = "crash"
)

// Kind classifies an injected fault.
type Kind uint8

// Fault kinds.
const (
	// KindTransient is a retryable failure that mutated nothing.
	KindTransient Kind = iota
	// KindPartial is a retryable failure raised after partial mutation;
	// the operation must roll back before the retry.
	KindPartial
	// KindCrash is a simulated process crash losing in-memory state.
	KindCrash
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindTransient:
		return "transient"
	case KindPartial:
		return "partial"
	case KindCrash:
		return "crash"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Error is an injected failure. Seq is the injector-global sequence
// number of the fault, making every occurrence traceable in logs.
type Error struct {
	Site Site
	Kind Kind
	Seq  int
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s failure #%d at %s", e.Kind, e.Seq, e.Site)
}

// Transient reports whether err is an injected fault that a bounded
// retry (after rollback, for partial applies) may clear. Crashes and
// real (non-injected) errors are not transient.
func Transient(err error) bool {
	var fe *Error
	if !errors.As(err, &fe) {
		return false
	}
	return fe.Kind == KindTransient || fe.Kind == KindPartial
}

// Injector decides whether the operation at a site fails. Implementations
// must be deterministic for a fixed construction and call sequence.
type Injector interface {
	// Hit returns a non-nil error to inject a failure at this call, nil
	// to let the operation proceed.
	Hit(site Site) error
}

// Nop injects nothing; it is the fault-free baseline injector.
type Nop struct{}

// Hit implements Injector.
func (Nop) Hit(Site) error { return nil }

// AlwaysAt returns an injector that fails every call at one site (with
// the kind natural for that site) and nothing elsewhere — a persistent
// fault, for exercising retry exhaustion and degraded mode.
func AlwaysAt(site Site) Injector { return &stuck{site: site} }

type stuck struct {
	site Site
	seq  int
}

func (s *stuck) Hit(site Site) error {
	if site != s.site {
		return nil
	}
	s.seq++
	return &Error{Site: site, Kind: kindOf(site), Seq: s.seq}
}

// kindOf maps a site to the fault kind it naturally raises.
func kindOf(site Site) Kind {
	switch site {
	case SiteDrainApply:
		return KindPartial
	case SiteCrash:
		return KindCrash
	}
	return KindTransient
}

// Rates holds per-site fire probabilities for the Seeded injector, in
// [0, 1] per Hit call.
type Rates struct {
	DrainPlan  float64
	DrainApply float64
	WALCommit  float64
	Checkpoint float64
	Crash      float64
}

// DefaultRates is the chaos harness's standard fault mix: frequent
// transient drain failures, occasional partial applies and crashes.
func DefaultRates() Rates {
	return Rates{DrainPlan: 0.08, DrainApply: 0.05, WALCommit: 0.03, Checkpoint: 0.10, Crash: 0.03}
}

func (r Rates) of(site Site) float64 {
	switch site {
	case SiteDrainPlan:
		return r.DrainPlan
	case SiteDrainApply:
		return r.DrainApply
	case SiteWALCommit:
		return r.WALCommit
	case SiteCheckpoint:
		return r.Checkpoint
	case SiteCrash:
		return r.Crash
	}
	return 0
}

// MaxRun is the per-site cap on consecutive injected failures. After
// MaxRun failures in a row at one site, the next Hit there is forced to
// succeed. A retry budget of at least 1 + MaxRun*(number of in-drain
// sites) therefore always clears transient faults; MaxAttempts is derived
// from this bound.
const MaxRun = 2

// MaxAttempts is the broker's budget of tries (first attempt included)
// for one drain. It exceeds 1 + MaxRun times the three in-drain sites
// (drain.plan, drain.apply, wal.commit), so every transient fault the
// Seeded injector can produce clears within budget — the invariant the
// chaos determinism property rests on. An injector fails by call
// sequence, never by elapsed time, so a retry follows its failure at once.
const MaxAttempts = 2 + 3*MaxRun

// Seeded is a deterministic probabilistic injector: for a fixed seed and
// call sequence it fires the exact same faults. It is safe for
// concurrent use, though determinism then depends on the callers'
// sequencing.
type Seeded struct {
	mu       sync.Mutex
	rng      *rand.Rand
	rates    Rates
	seq      int
	run      map[Site]int // current consecutive-failure run length
	fired    map[Site]int
	observer func(Site, Kind)
}

// NewSeeded returns an injector drawing from rates with the given seed.
func NewSeeded(seed int64, rates Rates) *Seeded {
	return &Seeded{
		rng:   rand.New(rand.NewSource(seed)),
		rates: rates,
		run:   make(map[Site]int),
		fired: make(map[Site]int),
	}
}

// Hit implements Injector.
func (s *Seeded) Hit(site Site) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.run[site] >= MaxRun {
		// Cap consecutive failures so bounded retries always clear them.
		s.run[site] = 0
		return nil
	}
	if s.rng.Float64() >= s.rates.of(site) {
		s.run[site] = 0
		return nil
	}
	s.run[site]++
	s.seq++
	s.fired[site]++
	if s.observer != nil {
		s.observer(site, kindOf(site))
	}
	return &Error{Site: site, Kind: kindOf(site), Seq: s.seq}
}

// SetObserver installs a callback invoked (under the injector's lock)
// for every injected fault. This is the package's instrumentation seam:
// fault stays dependency-free while metrics layers count injections per
// site. The callback must not call back into the injector. A nil
// callback detaches.
func (s *Seeded) SetObserver(fn func(Site, Kind)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observer = fn
}

// Fired returns a copy of the per-site injected-fault counts.
func (s *Seeded) Fired() map[Site]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Site]int, len(s.fired))
	for k, v := range s.fired {
		out[k] = v
	}
	return out
}

// Total returns the number of faults injected so far.
func (s *Seeded) Total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}
