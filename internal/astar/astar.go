// Package astar searches the space of LGM maintenance plans for an
// optimal one, per Section 4.1 of the paper. The space is a DAG whose
// nodes are (time, post-action state) pairs: each node's outgoing edges
// jump to the first future step at which the accumulated state becomes
// full and apply one greedy minimal valid action there. Every
// source-to-destination path is an LGM plan and vice versa, so a shortest
// path (by total edge weight f(q)) is an optimal LGM plan.
//
// The search is informed by a consistent per-table lower bound. Let
// R_i = s[i] + K_i be the table-i modifications still to process (K_i are
// the arrivals strictly after t), and let b_i = m_i + max{b : f_i(b) <= C}
// bound the largest batch any path in the LGM graph can drain from table i
// in one action (the state one step before any forced action is non-full,
// so its table-i component costs at most C, and at most m_i more arrive).
// The heuristic is
//
//	h(t, s) = Σ_i M_i(R_i),   M_i(R) = min { Σ_j f_i(k_j) : Σ_j k_j = R, k_j <= b_i }
//
// computed by dynamic programming. M_i is admissible (every path drains
// table i in batches of at most b_i) and consistent (M_i(R) <= f_i(q) +
// M_i(R-q) for q <= b_i by definition, and M_i is monotone), so the first
// expansion of every node is optimal and closed nodes are never reopened.
//
// The paper proposes h(t,s) = Σ_i floor(R_i/b_i)·f_i(b_i) (Section 4.1)
// and asserts its consistency (Lemma 7). That formula is not admissible
// for subadditive non-concave costs — with f(k) = ceil(k/5)·2 and b = 28,
// processing R = 84 costs 34 in batches (25+25+25+9) while the formula
// claims 3·f(28) = 36 — and it is not consistent even for linear costs, so
// a closed-list A* could return suboptimal plans. M_i dominates the
// paper's bound wherever the latter is valid (e.g. linear costs), so this
// is a strict strengthening, not a behavioural change.
//
// The implementation keeps the search allocation-lean: a node is its
// fixed-size comparable (t, state) key and owns no vectors. Expansion
// decodes the state from the key into a scratch vector, the heuristic
// value is computed once per node and cached on its queue entry, and the
// plan derives each edge's action from the states at its two ends.
package astar

import (
	"container/heap"
	"errors"
	"fmt"
	"math"

	"abivm/internal/core"
)

// Options tunes the search.
type Options struct {
	// DisableHeuristic runs plain Dijkstra (h == 0); used by the heuristic
	// ablation bench to quantify how much work the heuristic saves.
	DisableHeuristic bool
	// MaxExpansions aborts the search after this many node expansions;
	// 0 means unlimited.
	MaxExpansions int
	// AllowNonMinimal expands every greedy valid action instead of only
	// minimal ones, searching the larger space of lazy-greedy plans
	// (LGM minus the M). Lazy-greedy plans are a superset of LGM plans,
	// so the result can only be cheaper — the minimality ablation bench
	// quantifies how much plan quality Definition 3 trades for its much
	// smaller search space.
	AllowNonMinimal bool
}

// Result carries the optimal LGM plan and search statistics.
type Result struct {
	Plan      core.Plan
	Cost      float64
	Expanded  int // nodes dequeued and expanded
	Generated int // successor edges generated
	HeapPeak  int // largest open-list length reached
}

// ErrBudgetExceeded is returned when MaxExpansions is hit before the
// destination is reached.
var ErrBudgetExceeded = errors.New("astar: expansion budget exceeded")

// maxKeyTables bounds the instance arity the packed node key supports.
// It is core's greedy-action enumeration cap (the paper has n <= 5;
// expansion would refuse larger instances anyway), so packing states
// into a fixed-size array loses no generality.
const maxKeyTables = core.MaxTables

// nodeKey identifies a search state — the post-action state right after
// an action taken at time t — as a comparable value usable directly as a
// map key. The source has t == -1 and a zero state; the destination has
// t == T and a zero state. Components beyond the instance arity stay
// zero and never influence equality.
type nodeKey struct {
	t int32
	s [maxKeyTables]int32
}

// stateLess orders keys by state components, lexicographically; used
// only as the final determinism tie-break in the priority queue.
func (k nodeKey) stateLess(o nodeKey) bool {
	for i := range k.s {
		if k.s[i] != o.s[i] {
			return k.s[i] < o.s[i]
		}
	}
	return false
}

// pqItem is one search node: its priority-queue entry while open, its
// best parent link, and whether it has been expanded. One map holds every
// node generated, so relaxing an edge costs a single lookup.
type pqItem struct {
	key nodeKey
	g   float64 // best known path cost from source
	// h is the heuristic value of the node, computed once when the node
	// is first generated. h depends only on (t, state) — never on the
	// path — so a decrease-key must reuse it rather than re-evaluate;
	// recomputing was pure waste on the old hot path, and caching is
	// behaviour-neutral (see TestHeuristicCachePure).
	h      float64
	index  int
	closed bool // expanded: its g is final
	// parent is the best known incoming edge: the node was reached from
	// parent by the action that takes the parent's state, accumulated to
	// key.t, to key.s. The source has no parent.
	parent *pqItem
}

type priorityQueue []*pqItem

func (pq priorityQueue) Len() int { return len(pq) }
func (pq priorityQueue) Less(i, j int) bool {
	// Heap ordering must be a strict weak order; epsilon comparisons are
	// not transitive.
	if di, dj := pq[i].g+pq[i].h, pq[j].g+pq[j].h; di != dj {
		return di < dj
	}
	// Tie-break on later time to reach the destination sooner; then on
	// the packed state for determinism.
	if pq[i].key.t != pq[j].key.t {
		return pq[i].key.t > pq[j].key.t
	}
	return pq[i].key.stateLess(pq[j].key)
}
func (pq priorityQueue) Swap(i, j int) {
	pq[i], pq[j] = pq[j], pq[i]
	pq[i].index = i
	pq[j].index = j
}
func (pq *priorityQueue) Push(x any) {
	it := x.(*pqItem)
	it.index = len(*pq)
	*pq = append(*pq, it)
}
func (pq *priorityQueue) Pop() any {
	old := *pq
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*pq = old[:n-1]
	return it
}

// Heuristic DP sizing: lbLenCap bounds the per-table DP table length and
// lbWorkCap the total DP work (table length × batch bound); beyond either
// cap the table falls back to the plain subadditive bound f_i(R), which is
// also consistent, just weaker.
const (
	lbLenCap  = 1 << 16
	lbWorkCap = 64_000_000
)

// tableLB is the per-table heuristic lower bound M_i, tabulated for
// R in [0, limit]; queries beyond limit clamp to M_i(limit), which keeps
// the bound admissible and consistent.
type tableLB struct {
	limit int
	m     []float64
}

func (lb *tableLB) at(r int) float64 {
	if r <= 0 || lb.limit == 0 {
		return 0
	}
	if r > lb.limit {
		r = lb.limit
	}
	return lb.m[r]
}

// newTableLB tabulates M_i(R) = min-cost partition of R into batches of at
// most maxBatch, for R up to limit. When the DP would be too expensive it
// falls back to M_i(R) = f_i(R), the subadditive single-batch bound.
func newTableLB(f core.CostFunc, maxBatch, limit int) *tableLB {
	if limit > lbLenCap {
		limit = lbLenCap
	}
	lb := &tableLB{limit: limit, m: make([]float64, limit+1)}
	if limit == 0 {
		return lb
	}
	inner := maxBatch
	if inner > limit {
		inner = limit
	}
	if inner <= 0 {
		inner = 1
	}
	if int64(limit)*int64(inner) > lbWorkCap {
		for r := 1; r <= limit; r++ {
			lb.m[r] = f.Cost(r)
		}
		return lb
	}
	costs := make([]float64, inner+1)
	for q := 1; q <= inner; q++ {
		costs[q] = f.Cost(q)
	}
	for r := 1; r <= limit; r++ {
		best := -1.0
		qMax := inner
		if qMax > r {
			qMax = r
		}
		for q := 1; q <= qMax; q++ {
			c := costs[q] + lb.m[r-q]
			if best < 0 || c < best {
				best = c
			}
		}
		lb.m[r] = best
	}
	return lb
}

// searcher holds the per-search context: the immutable instance data,
// the open/closed bookkeeping, and the reusable scratch buffers. A
// searcher serves exactly one Search call and is not goroutine-safe.
type searcher struct {
	in     *core.Instance
	opts   Options
	prefix []core.Vector // prefix[t] = Σ_{u<=t} d_u, views into one backing array
	suffix []core.Vector // suffix[t][i] = table-i arrivals strictly after t
	totals core.Vector   // total arrivals per table (the t == -1 suffix)
	lbs    []*tableLB    // per-table heuristic lower bounds

	open  priorityQueue
	nodes map[nodeKey]*pqItem

	// Scratch buffers: stateScratch holds the state decoded from a node's
	// key, accScratch backs the fullness probes of nextFull, preScratch
	// the accumulated pre-action state of the node being expanded,
	// postScratch a successor's post-action state, actionsBuf the greedy
	// action list, actScratch the enumeration buffers inside core.
	stateScratch core.Vector
	accScratch   core.Vector
	preScratch   core.Vector
	postScratch  core.Vector
	actionsBuf   []core.Vector
	actScratch   core.ActionScratch
}

// Search finds an optimal LGM plan for the instance. It assumes perfect
// knowledge of the arrival sequence and the refresh time T (the oracle
// setting of the paper); the policy package adapts its output to unknown
// refresh times. It panics if the instance has more than 20 tables or
// per-table arrival totals beyond the packed-key range (the paper's n is
// at most 5 and states are bounded by total arrivals).
func Search(in *core.Instance, opts Options) (*Result, error) {
	s := newSearcher(in, opts)
	return s.run()
}

func newSearcher(in *core.Instance, opts Options) *searcher {
	n := in.N()
	if n > maxKeyTables {
		panic(fmt.Sprintf("astar: %d tables exceeds the packed-key cap %d", n, maxKeyTables))
	}
	tEnd := in.T()
	// prefix sums share one backing array: T+1 header views, 1 allocation.
	prefix := make([]core.Vector, tEnd+1)
	backing := make(core.Vector, (tEnd+1)*n)
	running := core.NewVector(n)
	for t := 0; t <= tEnd; t++ {
		running.AddInPlace(in.Arrivals[t])
		prefix[t] = backing[t*n : (t+1)*n]
		copy(prefix[t], running)
	}
	s := &searcher{
		in:           in,
		opts:         opts,
		prefix:       prefix,
		suffix:       in.Arrivals.SuffixTotals(),
		totals:       in.Arrivals.TotalPerTable(),
		lbs:          make([]*tableLB, n),
		nodes:        map[nodeKey]*pqItem{},
		stateScratch: core.NewVector(n),
		accScratch:   core.NewVector(n),
		preScratch:   core.NewVector(n),
		postScratch:  core.NewVector(n),
	}
	maxStep := in.Arrivals.MaxPerStep()
	for i := 0; i < n; i++ {
		if s.totals[i] > math.MaxInt32 {
			panic(fmt.Sprintf("astar: table %d total arrivals %d exceed the packed-key range", i, s.totals[i]))
		}
		if opts.DisableHeuristic {
			s.lbs[i] = &tableLB{}
			continue
		}
		b := maxStep[i] + in.Model.MaxBatch(i, in.C)
		s.lbs[i] = newTableLB(in.Model.Func(i), b, s.totals[i])
	}
	return s
}

// accumulateInto writes into dst the state at time t2 given post-action
// state `state` at time t1 < t2 with no actions in between:
// state + Σ_{t1 < u <= t2} d_u. dst and state may not alias.
func (s *searcher) accumulateInto(dst, state core.Vector, t1, t2 int) {
	p2 := s.prefix[t2]
	if t1 >= 0 {
		p1 := s.prefix[t1]
		for i := range dst {
			dst[i] = state[i] + p2[i] - p1[i]
		}
		return
	}
	for i := range dst {
		dst[i] = state[i] + p2[i]
	}
}

// nextFull returns the first time t2 in (t1, T] at which the accumulated
// pre-action state becomes full, or T+1 if it never does. Because arrivals
// are non-negative and the cost functions are monotone, fullness is
// monotone in t2, so a binary search applies.
func (s *searcher) nextFull(state core.Vector, t1 int) int {
	tEnd := s.in.T()
	lo, hi := t1+1, tEnd
	if lo > hi {
		return tEnd + 1
	}
	s.accumulateInto(s.accScratch, state, t1, hi)
	if !s.in.Model.Full(s.accScratch, s.in.C) {
		return tEnd + 1
	}
	// Invariant: state at hi is full; state before lo is unknown/not full.
	for lo < hi {
		mid := lo + (hi-lo)/2
		s.accumulateInto(s.accScratch, state, t1, mid)
		if s.in.Model.Full(s.accScratch, s.in.C) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// h evaluates the heuristic for a node. It is a pure function of
// (t, state): callers cache its value per node (see pqItem.h).
func (s *searcher) h(t int, state core.Vector) float64 {
	if s.opts.DisableHeuristic {
		return 0
	}
	var k core.Vector
	if t < 0 {
		k = s.totals
	} else {
		k = s.suffix[t]
	}
	total := 0.0
	for i := range state {
		total += s.lbs[i].at(state[i] + k[i])
	}
	return total
}

// stateOf decodes the state of the node keyed k into the searcher's
// state scratch, valid until the next call.
func (s *searcher) stateOf(k nodeKey) core.Vector {
	for i := range s.stateScratch {
		s.stateScratch[i] = int(k.s[i])
	}
	return s.stateScratch
}

func (s *searcher) run() (*Result, error) {
	tEnd := s.in.T()
	destKey := nodeKey{t: int32(tEnd)}

	// Source: t == -1, zero state.
	src := &pqItem{key: nodeKey{t: -1}}
	src.h = s.h(-1, s.stateOf(src.key))
	s.nodes[src.key] = src
	heap.Push(&s.open, src)

	res := &Result{HeapPeak: 1}
	for s.open.Len() > 0 {
		// Decrease-key goes through heap.Fix on the live entry, so every
		// node is pushed once and popped once.
		it := heap.Pop(&s.open).(*pqItem)
		it.closed = true
		res.Expanded++
		if s.opts.MaxExpansions > 0 && res.Expanded > s.opts.MaxExpansions {
			return nil, ErrBudgetExceeded
		}
		if it.key == destKey {
			res.Cost = it.g
			res.Plan = s.reconstruct(it)
			return res, nil
		}
		s.expand(it, res)
		if n := len(s.open); n > res.HeapPeak {
			res.HeapPeak = n
		}
	}
	return nil, errors.New("astar: destination unreachable (internal invariant violated)")
}

// expand generates the successors of the node held by it and relaxes
// each resulting edge.
func (s *searcher) expand(it *pqItem, res *Result) {
	tEnd := s.in.T()
	t, state := int(it.key.t), s.stateOf(it.key)
	t2 := s.nextFull(state, t)
	if t2 >= tEnd {
		// Either the state never fills again (the only remaining move is
		// the refresh at T) or fullness first strikes exactly at T (the
		// refresh drains everything): one edge to the destination whose
		// action is the whole accumulated backlog.
		s.accumulateInto(s.preScratch, state, t, tEnd)
		s.relax(it, tEnd, nil, s.in.Model.Total(s.preScratch), res)
		return
	}
	s.accumulateInto(s.preScratch, state, t, t2)
	s.actionsBuf = s.actScratch.GreedyActionsInto(s.actionsBuf, s.preScratch, s.in.Model, s.in.C, !s.opts.AllowNonMinimal)
	for _, q := range s.actionsBuf {
		for i := range q {
			s.postScratch[i] = s.preScratch[i] - q[i]
		}
		s.relax(it, t2, s.postScratch, s.in.Model.Total(q), res)
	}
}

// relax processes one generated edge parent -> (t, post) of the given
// weight. post is the successor's post-action state; nil is the zero
// state (refresh edges). relax keeps no reference to post.
func (s *searcher) relax(parent *pqItem, t int, post core.Vector, weight float64, res *Result) {
	key := nodeKey{t: int32(t)}
	for i, v := range post {
		key.s[i] = int32(v)
	}
	existing, seen := s.nodes[key]
	if seen && existing.closed {
		return
	}
	res.Generated++
	g := parent.g + weight
	if seen {
		if g >= existing.g {
			return
		}
		// Decrease-key: the cached existing.h stays valid (h depends only
		// on the node), only g and the parent link change.
		existing.g = g
		heap.Fix(&s.open, existing.index)
		existing.parent = parent
		return
	}
	item := &pqItem{key: key, g: g, parent: parent}
	item.h = s.h(t, post)
	s.nodes[key] = item
	heap.Push(&s.open, item)
}

// reconstruct rebuilds the plan from the parent links ending at dest.
func (s *searcher) reconstruct(dest *pqItem) core.Plan {
	tEnd := s.in.T()
	n := s.in.N()
	plan := make(core.Plan, tEnd+1)
	for t := range plan {
		plan[t] = core.NewVector(n)
	}
	// Each edge's action is the parent's state accumulated to the
	// child's time, minus the child's post-action state.
	for nd := dest; nd.parent != nil; nd = nd.parent {
		t := int(nd.key.t)
		q := plan[t]
		s.accumulateInto(q, s.stateOf(nd.parent.key), int(nd.parent.key.t), t)
		for i := range q {
			q[i] -= int(nd.key.s[i])
		}
	}
	return plan
}
