package policy

import (
	"abivm/internal/core"
	"abivm/internal/obs"
)

// Metrics is ONLINE-M's instrumentation bundle, labeled by policy name.
// Attach with OnlineMarginal.SetMetrics; a nil bundle (the default) adds
// no work to Act. The instruments capture the paper's Section 4.3 decision loop:
// how often the state fills (Decisions), how many candidate actions each
// H(q) scoring pass weighed (Candidates), how large the chosen drains
// were (ActionMods), and how often the policy was forced into a full
// refresh (Refreshes).
type Metrics struct {
	Decisions  *obs.Counter
	Refreshes  *obs.Counter
	Candidates *obs.Counter
	ActionMods *obs.Histogram
}

// NewMetrics registers the policy instruments on r under the given
// policy label and returns the bundle (nil registry yields nil).
func NewMetrics(r *obs.Registry, policy string) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Decisions:  r.Counter("policy_decisions_total", "policy", policy),
		Refreshes:  r.Counter("policy_refreshes_total", "policy", policy),
		Candidates: r.Counter("policy_candidates_total", "policy", policy),
		ActionMods: r.Histogram("policy_action_mods",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}, "policy", policy),
	}
}

// observeDecision records one full-state H(q) decision.
func (ms *Metrics) observeDecision(candidates int, act core.Vector) {
	if ms == nil {
		return
	}
	ms.Decisions.Inc()
	ms.Candidates.Add(int64(candidates))
	total := 0
	for _, k := range act {
		total += k
	}
	ms.ActionMods.Observe(float64(total))
}

// observeRefresh records one forced full refresh.
func (ms *Metrics) observeRefresh() {
	if ms == nil {
		return
	}
	ms.Refreshes.Inc()
}
