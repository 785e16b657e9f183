package dataflow

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"abivm/internal/exec"
	"abivm/internal/ivm"
	"abivm/internal/plan"
	"abivm/internal/sql"
	"abivm/internal/storage"
)

// opKind enumerates the operator kinds of a plan spec.
type opKind int

const (
	opScan opKind = iota
	opFilter
	opJoin
)

// opSpec is one operator of a view's canonical plan shape: the
// side-effect-free description (kind, canonical expressions, signature)
// computed before any node is built. Subscribe binds a spec tree against
// the graph, then realizes it into graph nodes, reusing any node whose
// signature is already interned; Signatures renders the same tree for
// EXPLAIN output.
type opSpec struct {
	kind         opKind
	sig          string
	table        string     // opScan
	conjs        []sql.Expr // opFilter, sorted canonically
	equiL, equiR []sql.Expr // opJoin equi-key pairs, aligned, sorted canonically
	arrL, arrR   string     // opJoin: identities of the two input arrangements
	lwhere       []sql.Expr // opJoin: the left input's single-table conjuncts, sorted canonically
	rwhere       []sql.Expr // opJoin: the right input's, likewise
	residual     []sql.Expr // opJoin: the other multi-table conjuncts, sorted canonically
	left, right  *opSpec

	// What Graph.bind resolves, for realize to build from. An interned
	// operator has n, cols and tabs only, and its subtree nothing.
	n            node
	cols         []exec.Col
	tabs         []string
	tbl          *storage.Table // opScan
	where        conjunction    // opFilter: conjs; opJoin: residual
	lkeys, rkeys []exec.Scalar  // opJoin: equiL, equiR
	lpred, rpred conjunction    // opJoin: lwhere, rwhere
}

// buildSpecs derives the canonical operator tree for a view plan: a
// left-deep join spine in FROM order over unfiltered scans, each
// conjunct attached at the lowest covering join. A single-table conjunct
// is a side residual of the join that brings its table into the spine —
// lwhere of the first join for the leading table, rwhere of its own join
// for every other — so joins that differ only in such filters read the
// same arrangements. Every other conjunct, a table-free one included,
// splits into equi-key pairs and residuals over the joined row. Only a
// single-table view's conjuncts are filters: over its scan, and its
// table-free ones above that. The delta query's SELECT list is
// not an operator: it is returned beside the tree, canonicalized, for
// the view's sink to evaluate over the top operator's rows when it folds
// them. All expressions are canonicalized (alias→table) so structurally
// equal sub-plans from different views render identical signatures.
func buildSpecs(p *ivm.DeltaPlan, schemaOf func(string) (*storage.Schema, error)) (top *opSpec, items []sql.Expr, err error) {
	sources := make([]sourceTable, len(p.Sources))
	for i, s := range p.Sources {
		sch, err := schemaOf(s.Table)
		if err != nil {
			return nil, nil, err
		}
		sources[i] = sourceTable{alias: s.Alias, table: s.Table, schema: *sch}
	}
	canon := newCanonicalizer(sources)

	type conjunct struct {
		e        sql.Expr
		tabs     []string
		attached bool
	}
	conjs := make([]*conjunct, 0, len(p.Delta.Where))
	for _, w := range p.Delta.Where {
		cw, err := canon.expr(w)
		if err != nil {
			return nil, nil, err
		}
		conjs = append(conjs, &conjunct{e: cw, tabs: tablesOf(cw)})
	}

	var cur *opSpec
	var curTabs []string  // sorted canonical tables covered so far
	var lwhere []sql.Expr // the leading table's conjuncts, for the first join
	for _, src := range sources {
		leaf := &opSpec{kind: opScan, table: src.table, sig: "scan(" + src.table + ")"}
		var own []sql.Expr
		for _, c := range conjs {
			if !c.attached && len(c.tabs) == 1 && c.tabs[0] == src.table {
				own = append(own, c.e)
				c.attached = true
			}
		}
		if cur == nil {
			if len(sources) > 1 {
				lwhere = own
			} else if len(own) > 0 {
				leaf = filterSpec(leaf, own)
			}
			cur = leaf
			curTabs = []string{src.table}
			continue
		}
		joinedTabs := append(append([]string(nil), curTabs...), src.table)
		sort.Strings(joinedTabs)
		rightTabs := []string{src.table}
		type equiPair struct {
			l, r sql.Expr
			s    string
		}
		var pairs []equiPair
		var residual []sql.Expr
		for _, c := range conjs {
			if c.attached || !subset(c.tabs, joinedTabs) {
				continue
			}
			c.attached = true
			if be, ok := c.e.(*sql.BinaryExpr); ok && be.Op == "=" {
				lt, rt := tablesOf(be.Left), tablesOf(be.Right)
				if len(lt) > 0 && len(rt) > 0 {
					switch {
					case subset(lt, curTabs) && subset(rt, rightTabs):
						pairs = append(pairs, equiPair{l: be.Left, r: be.Right, s: be.Left.String() + "=" + be.Right.String()})
						continue
					case subset(lt, rightTabs) && subset(rt, curTabs):
						pairs = append(pairs, equiPair{l: be.Right, r: be.Left, s: be.Right.String() + "=" + be.Left.String()})
						continue
					}
				}
			}
			residual = append(residual, c.e)
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].s < pairs[j].s })
		sortExprs(lwhere)
		sortExprs(own)
		sortExprs(residual)
		j := &opSpec{kind: opJoin, left: cur, right: leaf, lwhere: lwhere, rwhere: own, residual: residual}
		lwhere = nil
		onStrs := make([]string, len(pairs))
		for i, pr := range pairs {
			j.equiL = append(j.equiL, pr.l)
			j.equiR = append(j.equiR, pr.r)
			onStrs[i] = pr.s
		}
		j.sig = fmt.Sprintf("join(%s, %s, on=[%s]%s%s%s)", cur.sig, leaf.sig, strings.Join(onStrs, "; "),
			sigClause("lwhere", j.lwhere), sigClause("rwhere", j.rwhere), sigClause("where", residual))
		j.arrL, j.arrR = arrangementID(cur.sig, j.equiL), arrangementID(leaf.sig, j.equiR)
		cur = j
		curTabs = joinedTabs
	}

	// Table-free conjuncts (pure literals) apply once above the spine.
	var consts []sql.Expr
	for _, c := range conjs {
		if !c.attached && len(c.tabs) == 0 {
			consts = append(consts, c.e)
			c.attached = true
		}
	}
	if len(consts) > 0 {
		cur = filterSpec(cur, consts)
	}
	for _, c := range conjs {
		if !c.attached {
			return nil, nil, fmt.Errorf("dataflow: conjunct %q not attachable to the join spine", c.e.String())
		}
	}

	items = make([]sql.Expr, len(p.Delta.Items))
	for i, it := range p.Delta.Items {
		if items[i], err = canon.expr(it.Expr); err != nil {
			return nil, nil, err
		}
	}
	return cur, items, nil
}

// sigClause renders one residual list of a join signature, or nothing
// when it is empty.
func sigClause(name string, conjs []sql.Expr) string {
	if len(conjs) == 0 {
		return ""
	}
	return ", " + name + "=[" + joinExprs(conjs, " AND ") + "]"
}

func filterSpec(child *opSpec, conjs []sql.Expr) *opSpec {
	sortExprs(conjs)
	return &opSpec{
		kind:  opFilter,
		left:  child,
		conjs: conjs,
		sig:   fmt.Sprintf("filter(%s, [%s])", child.sig, joinExprs(conjs, " AND ")),
	}
}

// arrangementID names a child's output indexed by a key list: the child's
// signature and the canonical key expressions in the join's pair order.
// Equal identities index the same rows the same way, so the graph keeps
// one arrangement per identity.
func arrangementID(childSig string, keys []sql.Expr) string {
	return fmt.Sprintf("arrange(%s, [%s])", childSig, joinExprs(keys, ", "))
}

func sortExprs(es []sql.Expr) {
	sort.Slice(es, func(i, j int) bool { return es[i].String() < es[j].String() })
}

func joinExprs(es []sql.Expr, sep string) string {
	strs := make([]string, len(es))
	for i, e := range es {
		strs[i] = e.String()
	}
	return strings.Join(strs, sep)
}

// walk visits the spec subtree in post-order, children before parents.
func (s *opSpec) walk(fn func(*opSpec)) {
	if s.left != nil {
		s.left.walk(fn)
	}
	if s.right != nil {
		s.right.walk(fn)
	}
	fn(s)
}

// Signatures returns the canonical operator signatures of a view plan
// in post-order (leaves first, the view's top operator last) and, apart
// from them, the one thing the view does not put into the graph: its
// sink's projection, the canonical SELECT list evaluated when the sink
// folds. No state is built — this is the EXPLAIN surface for the
// shared-dataflow mode, and the operator signatures are the identity
// under which Subscribe hash-conses, so two views share exactly the
// operators both lists name.
func Signatures(p *ivm.DeltaPlan, schemaOf func(string) (*storage.Schema, error)) (ops []string, sink string, err error) {
	top, items, err := buildSpecs(p, schemaOf)
	if err != nil {
		return nil, "", err
	}
	top.walk(func(s *opSpec) { ops = append(ops, s.sig) })
	return ops, "project [" + joinExprs(items, ", ") + "]", nil
}

// Arrangements returns the identities of the join-input arrangements a
// view plan reads, left before right, inner joins first, without
// building any state. Two views share exactly the arrangements whose
// identities coincide — a wider overlap than their operators', since
// joins that differ on the other side still index this one once.
func Arrangements(p *ivm.DeltaPlan, schemaOf func(string) (*storage.Schema, error)) ([]string, error) {
	top, _, err := buildSpecs(p, schemaOf)
	if err != nil {
		return nil, err
	}
	// The spine is left-deep: every join is on the chain of left children.
	var ids []string
	for s := top; s != nil; s = s.left {
		if s.kind == opJoin {
			ids = append([]string{s.arrL, s.arrR}, ids...)
		}
	}
	return ids, nil
}

// Graph is the shared operator DAG: one set of hash-consed nodes over
// one live database, fanning out to any number of view sinks, and one
// set of arrangements — the indexed join inputs — interned beside them.
// All methods assume external synchronization (the broker's lock),
// matching the rest of the engine.
type Graph struct {
	db      *storage.DB
	nodes   map[string]node
	scans   map[string]*scanNode
	arrs    map[string]*arrangement // by arrangementID
	hits    uint64
	arrHits uint64
	views   []*ViewHandle // the attached sinks, in subscribe order
	logs    []*deltaLog   // one per operator with sinks, in order of their first sink
	ctr     counters
	arena   deltaArena // the rows and coordinates deltas carry
	// arrOrder caches the arrangements in identity order for Trim; arrange
	// resets it. wm is Trim's watermark, reused across calls.
	arrOrder []*arrangement
	wm       map[string]uint64
}

// NewGraph builds an empty operator graph over the live database.
func NewGraph(db *storage.DB) *Graph {
	return &Graph{
		db:    db,
		nodes: make(map[string]node),
		scans: make(map[string]*scanNode),
		arrs:  make(map[string]*arrangement),
		wm:    make(map[string]uint64),
	}
}

func (g *Graph) schemaOf(table string) (*storage.Schema, error) {
	tbl, err := g.db.Table(table)
	if err != nil {
		return nil, err
	}
	return tbl.Schema(), nil
}

// Subscribe compiles a view plan into the graph — reusing every
// operator whose canonical signature is already interned, creating and
// wiring the rest — attaches a sink holding the view's own projection to
// the top operator's delta log, computes the view's initial content from
// the live database, and returns the handle. It builds nothing until
// every check has passed: bind resolves and compiles the operators the
// graph lacks, newViewHandle checks the sink and computes its content,
// and only then does realize build the missing operators, which cannot
// fail. A view that is refused leaves the graph as it was.
func (g *Graph) Subscribe(p *ivm.DeltaPlan) (*ViewHandle, error) {
	top, items, err := buildSpecs(p, g.schemaOf)
	if err != nil {
		return nil, err
	}
	if err := g.bind(top); err != nil {
		return nil, err
	}
	h, err := newViewHandle(g, p, top, items)
	if err != nil {
		return nil, err
	}
	h.attach(g.realize(top))
	return h, nil
}

// logOf returns the delta log of an operator's output, making it — and
// wiring it below the operator — for the operator's first sink.
func (g *Graph) logOf(n node) *deltaLog {
	for _, l := range g.logs {
		if l.src == n {
			return l
		}
	}
	l := &deltaLog{src: n, wm: make([]uint64, len(n.tables())), ctr: &g.ctr}
	n.addOut(l)
	g.logs = append(g.logs, l)
	return l
}

// bind resolves everything realize needs to build a spec tree's missing
// operators, without touching the graph: scan tables, each operator's
// columns and tables, filter conjuncts, join keys and residuals compiled
// against them. An interned operator takes its columns and tables from
// its node, and nothing below it is bound.
func (g *Graph) bind(s *opSpec) error {
	if n, ok := g.nodes[s.sig]; ok {
		s.n, s.cols, s.tabs = n, n.cols(), n.tables()
		return nil
	}
	var err error
	switch s.kind {
	case opScan:
		if s.tbl, err = g.db.Table(s.table); err != nil {
			return err
		}
		s.cols, s.tabs = scanCols(s.tbl.Schema()), []string{s.table}
	case opFilter:
		if err := g.bind(s.left); err != nil {
			return err
		}
		s.cols, s.tabs = s.left.cols, s.left.tabs
		s.where, err = bindConjunction(s.conjs, s.cols)
	case opJoin:
		l, r := s.left, s.right
		if err := g.bind(l); err != nil {
			return err
		}
		if err := g.bind(r); err != nil {
			return err
		}
		s.cols = append(slices.Clip(l.cols), r.cols...)
		s.tabs = append(slices.Clip(l.tabs), r.tabs...)
		if s.lkeys, err = bindScalars(s.equiL, l.cols); err != nil {
			return err
		}
		if s.rkeys, err = bindScalars(s.equiR, r.cols); err != nil {
			return err
		}
		if s.lpred, err = bindConjunction(s.lwhere, l.cols); err != nil {
			return err
		}
		if s.rpred, err = bindConjunction(s.rwhere, r.cols); err != nil {
			return err
		}
		s.where, err = bindConjunction(s.residual, s.cols)
	}
	return err
}

// realize returns the node of a bound spec, building it — and recursively
// its children — unless it is interned. Reused operators, the whole of a
// reused subtree, count as intern hits.
func (g *Graph) realize(s *opSpec) node {
	if s.n != nil {
		s.walk(func(*opSpec) { g.hits++ })
		return s.n
	}
	var n node
	switch s.kind {
	case opScan:
		sc := newScanNode(s.sig, s.tbl, s.cols, &g.arena)
		g.scans[s.table] = sc
		n = sc
	case opFilter:
		n = newFilterNode(s.sig, g.realize(s.left), s.where)
	case opJoin:
		left, right := g.realize(s.left), g.realize(s.right)
		n = newJoinNode(s.sig, g.arrange(s.arrL, left, s.lkeys), g.arrange(s.arrR, right, s.rkeys), s.lpred, s.rpred, s.where, s.cols)
	}
	g.nodes[s.sig] = n
	return n
}

// bindConjunction binds each conjunct against a schema.
func bindConjunction(conjs []sql.Expr, cols []exec.Col) (conjunction, error) {
	out := make(conjunction, len(conjs))
	for i, e := range conjs {
		var err error
		if out[i], err = plan.BindPredicate(e, cols); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// bindScalars binds each expression against a schema.
func bindScalars(es []sql.Expr, cols []exec.Col) ([]exec.Scalar, error) {
	out := make([]exec.Scalar, len(es))
	for i, e := range es {
		var err error
		if out[i], _, err = plan.BindScalar(e, cols); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// arrange returns the arrangement with the given identity, indexing the
// child's present output by keys when no join side reads it yet.
func (g *Graph) arrange(id string, child node, keys []exec.Scalar) *arrangement {
	if a, ok := g.arrs[id]; ok {
		g.arrHits++
		return a
	}
	a := newArrangement(id, &g.ctr, &g.arena, child, keys)
	g.arrs[id] = a
	g.arrOrder = nil
	return a
}

// Watches reports whether any subscribed view reads the table.
func (g *Graph) Watches(table string) bool {
	_, ok := g.scans[table]
	return ok
}

// Ingest appends one base-table modification to the table's ingest log —
// the one record of the arrival, which every view reading the table
// counts its backlog against — and propagates the resulting deltas
// through the whole shared graph, into every view's sink, in one pass.
func (g *Graph) Ingest(table string, mod ivm.Mod) error {
	sc, ok := g.scans[table]
	if !ok {
		return fmt.Errorf("dataflow: no subscribed view reads table %q", table)
	}
	return sc.ingest(mod)
}

// Trim garbage-collects graph state below the durability watermarks,
// below which no recovery will ever put a cursor again — a sink's
// checkpointed cursors, or its subscribe-time ones before its first
// checkpoint. Arrangement entries fully below the per-table watermark (the
// minimum over the sinks reading the table) are netted into their bucket's
// base, once per arrangement however many joins read it; the cost is
// proportional to what arrived since the watermark last covered it, not to
// table sizes or to the number of joins sharing an input. Each delta log
// drops what all of its own readers have checkpointed, so a stuck view
// holds back its own operator's log and no other.
func (g *Graph) Trim() {
	clear(g.wm)
	for _, h := range g.views {
		for i, t := range h.tabOrder {
			if cur, seen := g.wm[t]; !seen || h.durable[i] < cur {
				g.wm[t] = h.durable[i]
			}
		}
	}
	if g.arrOrder == nil {
		g.arrOrder = sortedByKey(g.arrs)
	}
	for _, a := range g.arrOrder {
		a.trim(g.wm)
	}
	for _, l := range g.logs {
		l.trim()
	}
}

// sortedByKey returns the map's values in key order, so no iteration
// order leaks from the map. Never nil.
func sortedByKey[V any](m map[string]V) []V {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]V, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// GraphStats is the observable shape of the shared graph.
type GraphStats struct {
	// Nodes is the number of live operators; Views the number of
	// attached sinks. InternHits counts operators reused instead of
	// created across all Subscribe calls so far — the sharing win.
	Nodes      int
	Views      int
	InternHits uint64
	// MaxFanout is the widest downstream consumer count of any operator:
	// operator edges, sinks, and the join sides reading it through an
	// arrangement.
	MaxFanout int
	// Arrangements is the number of live indexed join inputs, one per
	// distinct (input operator, key list); ArrangementHits counts join
	// sides served by an arrangement that already existed instead of
	// indexing their input again — InternHits' analogue for state.
	Arrangements    int
	ArrangementHits uint64
	// StateRows is the number of entries held across all arrangements
	// (consolidated base rows plus not-yet-covered deltas);
	// RetainedDeltas the number of propagated deltas waiting in delta
	// logs — each once, in the log of the operator that emitted it,
	// however many views read it, until a Trim finds every reader's
	// checkpoint covering it. Both should track table sizes and
	// checkpoint lag, not run length.
	StateRows      int
	RetainedDeltas int
	// TrimVisited counts the arrangement entries Trim has examined so far
	// — a deterministic work count.
	TrimVisited uint64
	// Probes counts the opposite buckets looked up for arriving join
	// inputs — once per delta and port group, not per join — and Products
	// the join products built, each once however many joins emit it. Both
	// are deterministic work counts.
	Probes   uint64
	Products uint64
}

// Add accumulates another graph's shape into s, for aggregating across
// a sharded broker's graphs: counts sum, MaxFanout takes the widest.
func (s *GraphStats) Add(o GraphStats) {
	s.Nodes += o.Nodes
	s.Views += o.Views
	s.InternHits += o.InternHits
	s.MaxFanout = max(s.MaxFanout, o.MaxFanout)
	s.Arrangements += o.Arrangements
	s.ArrangementHits += o.ArrangementHits
	s.StateRows += o.StateRows
	s.RetainedDeltas += o.RetainedDeltas
	s.TrimVisited += o.TrimVisited
	s.Probes += o.Probes
	s.Products += o.Products
}

// Stats snapshots the graph shape. It reads counters and walks the
// operator list, never operator state.
func (g *Graph) Stats() GraphStats {
	st := GraphStats{
		Nodes: len(g.nodes), Views: len(g.views), InternHits: g.hits,
		Arrangements: len(g.arrs), ArrangementHits: g.arrHits,
		StateRows: g.ctr.stateRows, RetainedDeltas: g.ctr.retained, TrimVisited: g.ctr.trimVisited,
		Probes: g.ctr.probes, Products: g.ctr.products,
	}
	for _, n := range g.nodes {
		if f := n.fanout(); f > st.MaxFanout {
			st.MaxFanout = f
		}
	}
	return st
}
