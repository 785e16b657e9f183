package experiments

import (
	"fmt"

	"abivm/internal/arrivals"
	"abivm/internal/astar"
	"abivm/internal/core"
	"abivm/internal/policy"
	"abivm/internal/sim"
)

// PoliciesResult races the full policy suite over one calibrated
// workload: the offline optimum, the paper's three approaches (NAIVE,
// ADAPT, ONLINE), the classic periodic baseline, and this library's two
// extensions (ONLINE-M, ADAPT-RP). It is the summary table a user
// consults when choosing a policy.
type PoliciesResult struct {
	C         float64
	T         int
	Names     []string
	Costs     []float64
	OverOpt   []float64 // cost / OPT-LGM
	Actions   []int
	Foresight []string // what the policy must know in advance
}

// Policies runs the suite comparison.
func Policies(cfg Config) (*PoliciesResult, error) {
	model, err := fig4Model(cfg, "linear")
	if err != nil {
		return nil, err
	}
	c := chooseC(model, cfg.Quick)
	tEnd := 1000
	adaptT0 := 500
	period := 40
	if cfg.Quick {
		tEnd = 200
		adaptT0 = 100
		period = 20
	}
	seq := arrivals.UniformSequence(tEnd+1, 1, 1)
	in, err := core.NewInstance(seq, model, c)
	if err != nil {
		return nil, err
	}
	opt, err := astar.Search(in, astar.Options{})
	if err != nil {
		return nil, err
	}
	adaptPlan, err := optPlanUniform(model, c, adaptT0, astar.Options{})
	if err != nil {
		return nil, err
	}

	res := &PoliciesResult{C: c, T: tEnd}
	add := func(name string, cost float64, actions int, foresight string) {
		res.Names = append(res.Names, name)
		res.Costs = append(res.Costs, cost)
		res.OverOpt = append(res.OverOpt, cost/opt.Cost)
		res.Actions = append(res.Actions, actions)
		res.Foresight = append(res.Foresight, foresight)
	}
	countActions := func(p core.Plan) int {
		n := 0
		for _, a := range p {
			if a != nil && !a.IsZero() {
				n++
			}
		}
		return n
	}
	add("OPT-LGM", opt.Cost, countActions(opt.Plan), "arrivals + refresh time")

	naive := in.NaivePlan()
	add("NAIVE", in.Cost(naive), countActions(naive), "none")

	pols := []struct {
		pol       policy.Policy
		foresight string
	}{
		{policy.NewPeriodic(model, c, period), "none (fixed period)"},
		{policy.NewAdapt(model, c, adaptPlan), fmt.Sprintf("plan for T0=%d", adaptT0)},
		{policy.NewAdaptReplan(model, c, adaptT0/2, nil), "none (replans from rates)"},
		{policy.NewOnline(model, c, nil), "none"},
		{policy.NewOnlineMarginal(model, c, nil), "none"},
	}
	for _, e := range pols {
		run, err := sim.Run(in, e.pol)
		if err != nil {
			return nil, err
		}
		add(run.Policy, run.TotalCost, run.Actions, e.foresight)
	}
	return res, nil
}

// PoliciesTable renders the suite comparison.
func PoliciesTable(cfg Config) (*Table, error) {
	res, err := Policies(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Policy suite: total maintenance cost on the calibrated TPC-R workload",
		Header: []string{"policy", "total cost", "cost/OPT", "actions", "advance knowledge"},
	}
	for i := range res.Names {
		t.Rows = append(t.Rows, []string{
			res.Names[i], f2(res.Costs[i]), fmt.Sprintf("%.3f", res.OverOpt[i]),
			fmt1(res.Actions[i]), res.Foresight[i],
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("uniform 1+1 updates/step, C = %.2f pseudo-ms, refresh at T = %d", res.C, res.T),
		"ONLINE-M and ADAPT-RP are this library's extensions; the rest follow the paper",
	)
	return t, nil
}
