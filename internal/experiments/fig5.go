package experiments

import (
	"fmt"
	"math"
	"sync"

	"abivm/internal/astar"
	"abivm/internal/core"
	"abivm/internal/costmodel"
	"abivm/internal/policy"
	"abivm/internal/sim"
	"abivm/internal/storage"
	"abivm/internal/tpcr"
)

// modelCacheKey identifies a fig4Model result: the model is a pure
// function of these four inputs (generation and measurement are fully
// seeded), so equal keys always yield identical models.
type modelCacheKey struct {
	scale float64
	seed  int64
	quick bool
	fit   string
}

var (
	modelCacheMu sync.Mutex
	modelCache   = map[modelCacheKey]*core.CostModel{}
)

// fig4Model returns the paper-view cost model for the configuration,
// memoized per (Scale, Seed, Quick, fit). Profiling shows the TPC-R
// generation + curve measurement behind it dominates the figure suite
// (~70% of BenchmarkFig6VaryRefresh), and Fig5/Fig6/Fig7/Policies all
// rebuild the identical model; CostModel is immutable after
// construction, so one shared instance serves every caller, including
// concurrent parallel-sweep workers. Errors are not cached.
func fig4Model(cfg Config, fit string) (*core.CostModel, error) {
	key := modelCacheKey{scale: cfg.Scale, seed: cfg.Seed, quick: cfg.Quick, fit: fit}
	modelCacheMu.Lock()
	defer modelCacheMu.Unlock()
	if m, ok := modelCache[key]; ok {
		return m, nil
	}
	m, err := fig4ModelUncached(cfg, fit)
	if err != nil {
		return nil, err
	}
	modelCache[key] = m
	return m, nil
}

// fig4ModelUncached measures the paper-view cost curves and returns a
// cost model (fit = "linear" or "piecewise").
func fig4ModelUncached(cfg Config, fit string) (*core.CostModel, error) {
	m, gen, err := setupView(cfg, tpcr.PaperView, true, false)
	if err != nil {
		return nil, err
	}
	ks := []int{1, 5, 10, 20, 40, 80, 120, 160, 240}
	if cfg.Quick {
		ks = []int{1, 5, 15, 30, 60, 90}
	}
	ps, s, err := measurePair(m, gen, ks)
	if err != nil {
		return nil, err
	}
	return costmodel.Model(fit, ps, s)
}

// chooseC picks the response-time constraint as the refresh cost of a
// balanced 40+40 backlog (12+12 in quick mode): large enough that both
// tables can batch, small enough that a steady 1+1 stream forces regular
// actions — mirroring the role C=12s plays against the paper's measured
// cost scale.
func chooseC(model *core.CostModel, quick bool) float64 {
	k := 80
	if quick {
		k = 30
	}
	return model.Total(core.Vector{k, k})
}

// engineReplay executes a maintenance plan against a freshly generated
// probe and returns the actual pseudo-ms cost of all its actions: each
// step's drains are summed and weighed once. Arrivals are (PS, S) update
// counts per step; seeds match setupView so the replay sees the same
// database and update stream every time.
func engineReplay(cfg Config, arrivalSeq core.Arrivals, plan core.Plan) (float64, error) {
	p, gen, err := setupView(cfg, tpcr.PaperView, true, false)
	if err != nil {
		return 0, err
	}
	w := storage.DefaultWeights()
	total := 0.0
	for t, d := range arrivalSeq {
		for i := 0; i < d[0]; i++ {
			if err := p.Apply(gen.PartSuppUpdate()); err != nil {
				return 0, err
			}
		}
		for i := 0; i < d[1]; i++ {
			if err := p.Apply(gen.SupplierUpdate()); err != nil {
				return 0, err
			}
		}
		act := plan[t]
		if act == nil || act.IsZero() {
			continue
		}
		var work storage.Stats
		for i, alias := range []string{"PS", "S"} {
			if act[i] == 0 {
				continue
			}
			st, err := p.Drain(alias, act[i])
			if err != nil {
				return 0, err
			}
			work.Add(st)
		}
		total += w.Cost(work)
	}
	return total, nil
}

// Fig5Result compares simulated plan costs (via measured cost functions)
// with actual engine execution costs for three plans.
type Fig5Result struct {
	Plans     []string
	Simulated []float64
	Actual    []float64
	DiffPct   []float64
}

// Fig5 runs the validation experiment.
func Fig5(cfg Config) (*Fig5Result, error) {
	model, err := fig4Model(cfg, "piecewise")
	if err != nil {
		return nil, err
	}
	steps := 200
	if cfg.Quick {
		steps = 80
	}
	arrivalSeq := make(core.Arrivals, steps)
	for t := range arrivalSeq {
		arrivalSeq[t] = core.Vector{1, 1}
	}
	c := chooseC(model, cfg.Quick)
	in, err := core.NewInstance(arrivalSeq, model, c)
	if err != nil {
		return nil, err
	}

	naive := in.NaivePlan()
	opt, err := astar.Search(in, astar.Options{})
	if err != nil {
		return nil, err
	}
	onlineRun, err := sim.Run(in, policy.NewOnline(model, c, nil))
	if err != nil {
		return nil, err
	}

	res := &Fig5Result{}
	for _, entry := range []struct {
		name string
		plan core.Plan
	}{
		{"NAIVE", naive},
		{"ONLINE", onlineRun.Plan},
		{"OPT-LGM", opt.Plan},
	} {
		simCost := in.Cost(entry.plan)
		actCost, err := engineReplay(cfg, arrivalSeq, entry.plan)
		if err != nil {
			return nil, err
		}
		diff := 0.0
		if actCost != 0 {
			diff = 100 * math.Abs(simCost-actCost) / actCost
		}
		res.Plans = append(res.Plans, entry.name)
		res.Simulated = append(res.Simulated, simCost)
		res.Actual = append(res.Actual, actCost)
		res.DiffPct = append(res.DiffPct, diff)
	}
	return res, nil
}

// Fig5Table renders the validation experiment.
func Fig5Table(cfg Config) (*Table, error) {
	res, err := Fig5(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 5: simulation validation (simulated vs actual plan cost, pseudo-ms)",
		Header: []string{"plan", "simulated", "actual", "diff %"},
	}
	for i := range res.Plans {
		t.Rows = append(t.Rows, []string{
			res.Plans[i], f2(res.Simulated[i]), f2(res.Actual[i]), fmt.Sprintf("%.1f", res.DiffPct[i]),
		})
	}
	t.Notes = append(t.Notes, "paper shape: negligible difference between simulated and actual costs")
	return t, nil
}
