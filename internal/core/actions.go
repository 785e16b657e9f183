package core

import "fmt"

// maxEnumTables caps the subset enumeration used to generate greedy
// actions. The paper observes n is a very small constant (n <= 5 for its
// TPC-R views); 20 leaves generous headroom while preventing a 2^n blowup
// from a mis-constructed instance.
const maxEnumTables = 20

// ActionScratch holds the reusable enumeration buffers behind
// GreedyActionSet. A caller that enumerates actions once per node
// expansion (the A* searcher) keeps one scratch and calls
// AppendGreedyActions to avoid re-allocating the buffers every time.
// The zero value is ready to use; a scratch must not be used from
// multiple goroutines at once.
type ActionScratch struct {
	occupied []int
	saved    []float64
}

// GreedyActionSet enumerates candidate greedy actions for pre-action state
// s under constraint C: each candidate empties exactly the delta tables in
// some subset and leaves a non-full post-action state. Only subsets of
// tables with non-empty deltas are considered.
//
// If minimalOnly is true only minimal candidates are returned: emptying any
// proper subset would leave a full state (Definition 3, minimality).
// Validity of a subset is monotone (emptying more tables only shrinks the
// residual refresh cost), so minimality is checked against one-bit-removed
// subsets only.
//
// It panics if s has more than maxEnumTables components or does not match
// the model arity.
func GreedyActionSet(s Vector, m *CostModel, c float64, minimalOnly bool) []Vector {
	var sc ActionScratch
	return sc.AppendGreedyActions(nil, s, m, c, minimalOnly)
}

// AppendGreedyActions appends the greedy action set of s (see
// GreedyActionSet) to dst and returns the extended slice. The appended
// action vectors are freshly allocated and owned by the caller; only the
// scratch's internal enumeration buffers are reused across calls. It
// panics if s has more than maxEnumTables components or does not match
// the model arity.
func (sc *ActionScratch) AppendGreedyActions(dst []Vector, s Vector, m *CostModel, c float64, minimalOnly bool) []Vector {
	return sc.greedyActions(dst, s, m, c, minimalOnly, false)
}

// GreedyActionsInto is AppendGreedyActions into dst[:0] for a caller that
// is done with the actions before its next call: each action overwrites
// the vector of its length that dst's backing array already holds at its
// position, and only a missing one is allocated, so a caller that passes
// back the slice it got allocates nothing once the set stops growing. The
// returned vectors are valid until the next call with the same dst.
func (sc *ActionScratch) GreedyActionsInto(dst []Vector, s Vector, m *CostModel, c float64, minimalOnly bool) []Vector {
	return sc.greedyActions(dst[:0], s, m, c, minimalOnly, true)
}

// greedyActions appends the greedy action set of s to dst; reuse
// overwrites the vectors dst's spare capacity holds instead of
// allocating them.
func (sc *ActionScratch) greedyActions(dst []Vector, s Vector, m *CostModel, c float64, minimalOnly, reuse bool) []Vector {
	n := len(s)
	if n > maxEnumTables {
		panic(fmt.Sprintf("core: %d tables exceeds the greedy-action enumeration cap %d", n, maxEnumTables))
	}
	// Tables that actually hold modifications; emptying an empty table is a
	// no-op, so subsets are built over occupied tables only.
	occupied := sc.occupied[:0]
	for i, k := range s {
		if k > 0 {
			occupied = append(occupied, i)
		}
	}
	sc.occupied = occupied
	if len(occupied) == 0 {
		return dst
	}
	total := m.Total(s)
	// saved[j] is the refresh cost removed by emptying occupied[j].
	saved := sc.saved[:0]
	for _, i := range occupied {
		saved = append(saved, m.TableCost(i, s[i]))
	}
	sc.saved = saved
	nOcc := len(occupied)
	valid := func(mask uint32) bool {
		residual := total
		for j := 0; j < nOcc; j++ {
			if mask&(1<<j) != 0 {
				residual -= saved[j]
			}
		}
		// The subtractive residual drifts from the additive total the
		// model computes, so compare within tolerance.
		return ApproxLE(residual, c)
	}
	for mask := uint32(1); mask < 1<<nOcc; mask++ {
		if !valid(mask) {
			continue
		}
		if minimalOnly {
			minimal := true
			for j := 0; j < nOcc; j++ {
				if mask&(1<<j) != 0 && valid(mask&^(1<<j)) {
					minimal = false
					break
				}
			}
			if !minimal {
				continue
			}
		}
		var act Vector
		if reuse && len(dst) < cap(dst) {
			if v := dst[:len(dst)+1][len(dst)]; len(v) == n {
				act = v
				clear(act)
			}
		}
		if act == nil {
			act = NewVector(n)
		}
		for j, i := range occupied {
			if mask&(1<<uint(j)) != 0 {
				act[i] = s[i]
			}
		}
		dst = append(dst, act)
	}
	return dst
}

// MinimizeAction implements the paper's MinimizeAction(q, s): given a
// greedy action q over pre-action state s with f(s-q) <= C, it returns a
// minimal greedy action that empties a subset of the tables emptied by q
// and still satisfies the constraint. Tables are considered for removal in
// descending order of their drain cost, so the kept (processed) components
// tend to be the cheap ones; any minimal subset satisfies the paper's
// proofs. It panics if q or s does not match the model arity or q is not
// dominated by s.
func MinimizeAction(q, s Vector, m *CostModel, c float64) Vector {
	out := q.Clone()
	residual := m.Total(s.Sub(out))
	type cand struct {
		i    int
		cost float64
	}
	cands := make([]cand, 0, len(out))
	for i, k := range out {
		if k > 0 {
			cands = append(cands, cand{i, m.TableCost(i, k)})
		}
	}
	// Descending drain cost: try to avoid paying the big components.
	for a := 0; a < len(cands); a++ {
		for b := a + 1; b < len(cands); b++ {
			if cands[b].cost > cands[a].cost {
				cands[a], cands[b] = cands[b], cands[a]
			}
		}
	}
	for _, cd := range cands {
		// Dropping table cd.i from the action puts its full delta cost back
		// into the residual refresh cost.
		restored := m.TableCost(cd.i, s[cd.i])
		if ApproxLE(residual+restored, c) {
			residual += restored
			out[cd.i] = 0
		}
	}
	return out
}

// CheapestGreedyMinimalAction returns the greedy minimal valid action for
// state s with the smallest immediate processing cost f(q), or nil when s
// is not full (no action is forced). Ties break toward the
// lexicographically smallest action for determinism. It panics if s does
// not match the model arity or exceeds the enumeration cap.
func CheapestGreedyMinimalAction(s Vector, m *CostModel, c float64) Vector {
	if !m.Full(s, c) {
		return nil
	}
	var best Vector
	bestCost := 0.0
	for _, q := range GreedyActionSet(s, m, c, true) {
		cost := m.Total(q)
		if best == nil || cost < bestCost || (ApproxEq(cost, bestCost) && q.KeyLess(best)) {
			best, bestCost = q, cost
		}
	}
	return best
}
