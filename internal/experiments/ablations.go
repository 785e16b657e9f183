package experiments

import (
	"fmt"

	"abivm/internal/arrivals"
	"abivm/internal/astar"
	"abivm/internal/core"
	"abivm/internal/costfn"
	"abivm/internal/ivm"
	"abivm/internal/policy"
	"abivm/internal/sim"
	"abivm/internal/storage"
	"abivm/internal/tpcr"
)

// AblationsResult holds the counted outcomes of the design-choice
// ablations (DESIGN.md §4): each pair of rows runs the same instance with
// one choice switched.
type AblationsResult struct {
	// A* against plain Dijkstra on 1000 steps.
	AStarNodes, DijkstraNodes int
	AStarCost, DijkstraCost   float64
	// Minimal actions (Definition 3) against every greedy valid action,
	// on 400 steps.
	MinimalNodes, NonMinimalNodes int
	MinimalCost, NonMinimalCost   float64
	// ONLINE's TimeToFull from EWMA rates against the stream's true
	// long-run rates, on the bursty 800-step stream.
	EWMACost, OracleRatesCost float64
	// Prescient ADAPT against replanning ADAPT-RP and ONLINE-M, on 600
	// steps.
	AdaptCost, AdaptReplanCost, OnlineMCost float64
	// Engine cost of one 20-modification batch on the indexed (PS) and
	// the unindexed (S) side of the paper's view, per TPC-R scale.
	IndexScales []float64
	PSCost      []float64
	SCost       []float64
}

// ablationInstance puts the arrivals under the linear cost model the
// planner and policy ablations share, with the Figure-4-shaped asymmetry
// (a cheap indexed side, an expensive unindexed one).
func ablationInstance(seq core.Arrivals) (*core.Instance, error) {
	fPS, err := costfn.NewLinear(0.03, 2.5)
	if err != nil {
		return nil, err
	}
	fS, err := costfn.NewLinear(0.09, 20)
	if err != nil {
		return nil, err
	}
	model := core.NewCostModel(fPS, fS)
	return core.NewInstance(seq, model, model.Total(core.Vector{80, 80}))
}

// Ablations runs every ablation. The instances are fixed: Scale, Seed and
// Quick do not change them, so the table reads the same in every mode.
func Ablations(Config) (*AblationsResult, error) {
	res := &AblationsResult{}
	search := func(in *core.Instance, opts astar.Options) (int, float64, error) {
		r, err := astar.Search(in, opts)
		if err != nil {
			return 0, 0, err
		}
		return r.Expanded, r.Cost, nil
	}
	simulate := func(in *core.Instance, pol policy.Policy) (float64, error) {
		r, err := sim.Run(in, pol, sim.Options{})
		if err != nil {
			return 0, err
		}
		return r.TotalCost, nil
	}

	in, err := ablationInstance(arrivals.UniformSequence(1000, 1, 1))
	if err != nil {
		return nil, err
	}
	if res.AStarNodes, res.AStarCost, err = search(in, astar.Options{}); err != nil {
		return nil, err
	}
	if res.DijkstraNodes, res.DijkstraCost, err = search(in, astar.Options{DisableHeuristic: true}); err != nil {
		return nil, err
	}

	if in, err = ablationInstance(arrivals.UniformSequence(400, 1, 1)); err != nil {
		return nil, err
	}
	if res.MinimalNodes, res.MinimalCost, err = search(in, astar.Options{}); err != nil {
		return nil, err
	}
	if res.NonMinimalNodes, res.NonMinimalCost, err = search(in, astar.Options{AllowNonMinimal: true}); err != nil {
		return nil, err
	}

	bursty := arrivals.Sequence(800, arrivals.NewBursty(0, 3, 40, 10, 7), arrivals.NewBursty(0, 3, 40, 10, 8))
	if in, err = ablationInstance(bursty); err != nil {
		return nil, err
	}
	if res.EWMACost, err = simulate(in, policy.NewOnline(in.Model, in.C, policy.NewEWMA(0.2))); err != nil {
		return nil, err
	}
	// The bursty stream's long-run rate: 3 per step, on 10 steps of 50.
	if res.OracleRatesCost, err = simulate(in, policy.NewOnline(in.Model, in.C, policy.FixedRates{0.6, 0.6})); err != nil {
		return nil, err
	}

	if in, err = ablationInstance(arrivals.UniformSequence(600, 1, 1)); err != nil {
		return nil, err
	}
	opt, err := astar.Search(in, astar.Options{})
	if err != nil {
		return nil, err
	}
	if res.AdaptCost, err = simulate(in, policy.NewAdapt(in.Model, in.C, opt.Plan)); err != nil {
		return nil, err
	}
	if res.AdaptReplanCost, err = simulate(in, policy.NewAdaptReplan(in.Model, in.C, 100, nil)); err != nil {
		return nil, err
	}
	if res.OnlineMCost, err = simulate(in, policy.NewOnlineMarginal(in.Model, in.C, nil)); err != nil {
		return nil, err
	}

	for _, scale := range []float64{0.002, 0.02} {
		ps, err := batchCost(scale, "PS")
		if err != nil {
			return nil, err
		}
		s, err := batchCost(scale, "S")
		if err != nil {
			return nil, err
		}
		res.IndexScales = append(res.IndexScales, scale)
		res.PSCost = append(res.PSCost, ps)
		res.SCost = append(res.SCost, s)
	}
	return res, nil
}

// batchCost is the engine's counted cost, in pseudo-ms, of one batch of 20
// modifications to one table of the paper's view on a fresh TPC-R
// database at the given scale, with Supplier's suppkey indexed.
func batchCost(scale float64, alias string) (float64, error) {
	const k = 20
	cfg := tpcr.Config{ScaleFactor: scale, Seed: 1, SupplierSuppkeyIndex: true}
	db := storage.NewDB()
	if err := tpcr.Generate(db, cfg); err != nil {
		return 0, err
	}
	m, err := ivm.New(db, tpcr.PaperView)
	if err != nil {
		return 0, err
	}
	gen := tpcr.NewUpdateGen(db, cfg, 5)
	mk := gen.PartSuppUpdate
	if alias == "S" {
		mk = gen.SupplierUpdate
	}
	for j := 0; j < k; j++ {
		if err := m.Apply(mk()); err != nil {
			return 0, err
		}
	}
	before := *m.Stats()
	if err := m.ProcessBatch(alias, k); err != nil {
		return 0, err
	}
	return storage.DefaultWeights().Cost(m.Stats().Sub(before)), nil
}

// AblationsTable renders the experiment.
func AblationsTable(cfg Config) (*Table, error) {
	res, err := Ablations(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablations: the design choices of DESIGN.md section 4, in counted work",
		Header: []string{"ablation", "variant", "instance", "nodes expanded", "cost", "unit"},
	}
	plan := func(ablation, variant, instance string, nodes int, cost float64) {
		n := "-"
		if nodes > 0 {
			n = fmt1(nodes)
		}
		t.Rows = append(t.Rows, []string{ablation, variant, instance, n, fmt.Sprintf("%.1f", cost), "model units"})
	}
	plan("search heuristic", "A*", "uniform 1+1, T=1000", res.AStarNodes, res.AStarCost)
	plan("search heuristic", "Dijkstra", "uniform 1+1, T=1000", res.DijkstraNodes, res.DijkstraCost)
	plan("minimality", "minimal (LGM)", "uniform 1+1, T=400", res.MinimalNodes, res.MinimalCost)
	plan("minimality", "non-minimal", "uniform 1+1, T=400", res.NonMinimalNodes, res.NonMinimalCost)
	plan("TimeToFull rates", "ONLINE, EWMA", "bursty, T=800", 0, res.EWMACost)
	plan("TimeToFull rates", "ONLINE, oracle", "bursty, T=800", 0, res.OracleRatesCost)
	plan("foresight", "ADAPT (prescient)", "uniform 1+1, T=600", 0, res.AdaptCost)
	plan("foresight", "ADAPT-RP", "uniform 1+1, T=600", 0, res.AdaptReplanCost)
	plan("foresight", "ONLINE-M", "uniform 1+1, T=600", 0, res.OnlineMCost)
	for i, scale := range res.IndexScales {
		instance := fmt.Sprintf("TPC-R %g, k=20", scale)
		t.Rows = append(t.Rows,
			[]string{"index asymmetry", "PS (indexed)", instance, "-", f2(res.PSCost[i]), "pseudo-ms"},
			[]string{"index asymmetry", "S (unindexed)", instance, "-", f2(res.SCost[i]), "pseudo-ms"})
	}
	last := len(res.IndexScales) - 1
	t.Notes = append(t.Notes,
		fmt.Sprintf("the heuristic is admissible: A* reaches Dijkstra's plan cost with %.1fx fewer expansions", float64(res.DijkstraNodes)/float64(res.AStarNodes)),
		fmt.Sprintf("minimal actions (Definition 3) reach the non-minimal plan cost with %d of its %d expansions", res.MinimalNodes, res.NonMinimalNodes),
		"ONLINE with the true long-run rates costs no more than with EWMA estimates: the gap is TimeToFull's estimation error",
		"ADAPT knows the arrivals in advance, ADAPT-RP replans every 100 steps from estimated rates, ONLINE-M plans nothing",
		fmt.Sprintf("the unindexed S batch costs %.1fx more at 10x the rows (one scan of PartSupp per batch); the indexed PS batch moves by %+.1f%%",
			res.SCost[last]/res.SCost[0], 100*(res.PSCost[last]/res.PSCost[0]-1)),
		"fixed instances: -scale, -seed and -quick do not change this table")
	return t, nil
}
