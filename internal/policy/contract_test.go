package policy

import (
	"math/rand"
	"testing"

	"abivm/internal/core"
	"abivm/internal/costfn"
	"abivm/internal/testenv"
)

// overlaps reports whether two vectors share any element's memory.
func overlaps(a, b core.Vector) bool {
	for i := range a {
		for j := range b {
			if &a[i] == &b[j] {
				return true
			}
		}
	}
	return false
}

// TestActKeepsItsContract drives every policy in the package over one
// random stream, forcing full states and ending on a refresh, and checks
// the Policy contract at every step: Act leaves d and pre as it found
// them, and the action it returns aliases neither — the broker passes its
// live arrival counter and pending scratch and keeps using both.
func TestActKeepsItsContract(t *testing.T) {
	model := mkModel(t)
	const c = 10.0
	plan := planFor(t, model, c, 6)
	policies := []Policy{
		NewNaive(model, c),
		NewPeriodic(model, c, 4),
		NewOnline(model, c, nil),
		NewOnlineMarginal(model, c, nil),
		NewAdapt(model, c, plan),
		NewAdaptReplan(model, c, 5, nil),
	}
	rng := rand.New(rand.NewSource(32))
	arr := make(core.Arrivals, 60)
	for ti := range arr {
		arr[ti] = core.Vector{rng.Intn(4), rng.Intn(4)}
	}
	for _, pol := range policies {
		t.Run(pol.Name(), func(t *testing.T) {
			pol.Reset(2)
			state := core.NewVector(2)
			acted := 0
			for ti, arrived := range arr {
				d := arrived.Clone()
				state.AddInPlace(d)
				pre := state.Clone()
				act := pol.Act(ti, d, pre, ti == len(arr)-1)
				if !d.Equal(arrived) || !pre.Equal(state) {
					t.Fatalf("t=%d: Act changed its inputs: d %v -> %v, pre %v -> %v", ti, arrived, d, state, pre)
				}
				if overlaps(act, d) || overlaps(act, pre) {
					t.Fatalf("t=%d: the action %v aliases d or pre", ti, act)
				}
				if !act.IsZero() {
					acted++
				}
				state.SubInPlace(act)
			}
			if acted < 2 || !state.IsZero() {
				t.Fatalf("%d drains, final state %v: the stream did not exercise the policy", acted, state)
			}
		})
	}
}

// TestOnlineActAllocatesNothing: once warm, an online policy's Act
// allocates nothing, whether it idles on a state that is not full, acts
// on a full one or drains everything at a refresh — the candidates, the
// post-action state each is scored on, the tie-break keys and the action
// it returns live in scratch that outlives the call.
func TestOnlineActAllocatesNothing(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	model := mkModel(t)
	const c = 10.0
	for _, pol := range []Policy{NewOnline(model, c, nil), NewOnlineMarginal(model, c, nil)} {
		for _, tc := range []struct {
			name    string
			pre     core.Vector
			full    bool
			refresh bool
		}{
			{"idle", core.Vector{1, 1}, false, false},
			{"full", core.Vector{9, 12}, true, false},
			{"refresh", core.Vector{9, 12}, true, true},
		} {
			t.Run(pol.Name()+"/"+tc.name, func(t *testing.T) {
				pol.Reset(2)
				if model.Full(tc.pre, c) != tc.full {
					t.Fatalf("state %v: full %v, want %v", tc.pre, !tc.full, tc.full)
				}
				d, step := core.Vector{1, 0}, 0
				pol.Act(step, d, tc.pre, tc.refresh)
				if allocs := testing.AllocsPerRun(100, func() {
					step++
					if act := pol.Act(step, d, tc.pre, tc.refresh); act.IsZero() == tc.full {
						t.Fatalf("Act on %v returned %v", tc.pre, act)
					}
				}); allocs != 0 {
					t.Errorf("Act allocates %v times, want 0", allocs)
				}
			})
		}
	}
}

// bisectTimeToFull is the search timeToFull replaced: a bisection of all
// of [1, ttfHorizon].
func bisectTimeToFull(p *Online, s core.Vector) int {
	rates := p.est.Rates()
	fullAfter := func(k int) bool {
		total := 0.0
		for i, base := range s {
			expect := base + int(rates[i]*float64(k)+0.5)
			total += p.model.TableCost(i, expect)
		}
		return !core.ApproxLE(total, p.c)
	}
	if !fullAfter(ttfHorizon) {
		return ttfHorizon
	}
	lo, hi := 1, ttfHorizon
	for lo < hi {
		mid := lo + (hi-lo)/2
		if fullAfter(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// TestTimeToFullMatchesBisection: doubling and then bisecting the last
// interval finds the same first full step as bisecting the whole horizon,
// over random states, rates — zero and tiny ones included, whose state
// never fills or fills only near the horizon — constraints and cost
// shapes.
func TestTimeToFullMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	shapes := []func() (core.CostFunc, error){
		func() (core.CostFunc, error) { return costfn.NewLinear(rng.Float64()*2, rng.Float64()*5) },
		func() (core.CostFunc, error) { return costfn.NewStep(1+rng.Intn(8), 0.5+rng.Float64()*3) },
		func() (core.CostFunc, error) { return costfn.NewLog(0.5+rng.Float64()*2, rng.Float64()*3) },
		func() (core.CostFunc, error) {
			return costfn.NewPower(0.1+rng.Float64(), 0.1+rng.Float64()*0.9, rng.Float64()*2)
		},
	}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(4)
		fs := make([]core.CostFunc, n)
		rates := make(FixedRates, n)
		s := core.NewVector(n)
		for i := range fs {
			f, err := shapes[rng.Intn(len(shapes))]()
			if err != nil {
				t.Fatal(err)
			}
			fs[i] = f
			switch rng.Intn(4) {
			case 0:
				rates[i] = 0
			case 1:
				rates[i] = rng.Float64() * 1e-5
			default:
				rates[i] = rng.Float64() * 5
			}
			s[i] = rng.Intn(30)
		}
		model := core.NewCostModel(fs...)
		c := model.Total(s) * (0.5 + rng.Float64()*20)
		p := NewOnline(model, c, rates)
		p.Reset(n)
		if got, want := p.timeToFull(s), bisectTimeToFull(p, s); got != want {
			t.Fatalf("trial %d: state %v, rates %v, C %g: timeToFull %d, bisection %d",
				trial, s, rates, c, got, want)
		}
	}
}
