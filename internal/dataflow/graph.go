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

	// summary is set on a view's top join when the view reads it through
	// a summary of its fact side (see summarize) that sums at least the
	// columns summed, sorted canonically: sumID is that of exactly those.
	// factLeft says which side is the fact side, and split is the width of
	// the left input's rows.
	summary  bool
	factLeft bool
	summed   []sql.Expr
	sumID    string
	split    int

	// What Graph.bind resolves, for realize to build from. An interned
	// operator has n, cols and tabs only, and its subtree nothing.
	n            node
	cols         []exec.Col
	tabs         []string
	tbl          *storage.Table // opScan
	where        conjunction    // opFilter: conjs; opJoin: residual
	lkeys, rkeys []exec.Scalar  // opJoin: equiL, equiR
	lpred, rpred conjunction    // opJoin: lwhere, rwhere
	llit, rlit   *literal       // opJoin: lwhere, rwhere when one literal equality
	sumArgs      []exec.Scalar  // summary: summed, over the fact side's rows
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
// them. A view whose aggregates can read the fact side of its join
// pre-aggregated reads its top join through a summary (summarize). All
// expressions are canonicalized (alias→table) so structurally equal
// sub-plans from different views render identical signatures.
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
	summarize(p, cur, items, sources)
	return cur, items, nil
}

// summarize marks a view's top join to be read through a summary of its
// fact side when the view folds only linear aggregates of the fact side
// along a key–FK join: the view aggregates, every aggregate is a COUNT,
// or a SUM or an AVG of a column of the fact table; the top operator
// joins two tables, the other of which — the dimension — joins on its
// whole primary key; and every GROUP BY column and every conjunct but the
// join key is the dimension's. The join is the one every view over it
// reads — the operators are what they would be without the mark — but
// its fact side's arrangement keeps a summary of each bucket's base
// entries, and a dimension-side delta emits to the join one product for
// the summary beside the products of the bucket's rows, which it builds
// only for the join's other readers. The view's sink folds the summary's
// count and exact sums at once and skips the products it stands for. The
// summary sums every column one of the join's such views sums. That a
// summed column is numeric is the sink's check (ivm.DeltaPlan.CheckDelta),
// made before the graph builds anything. The dimension is the right-hand
// table when both sides qualify.
func summarize(p *ivm.DeltaPlan, j *opSpec, items []sql.Expr, sources []sourceTable) {
	if !p.Aggregate || j.kind != opJoin || len(sources) != 2 || len(j.residual) > 0 {
		return
	}
	for _, factLeft := range []bool{true, false} {
		fact, dim, factWhere, dimKeys := sources[0], sources[1], j.lwhere, j.equiR
		if !factLeft {
			fact, dim, factWhere, dimKeys = sources[1], sources[0], j.rwhere, j.equiL
		}
		if len(factWhere) > 0 || !isPrimaryKey(dimKeys, dim) {
			continue
		}
		own := func(e sql.Expr) bool { t := tablesOf(e); return len(t) == 1 && t[0] == dim.table }
		if !slices.ContainsFunc(items[:p.GroupCols], func(e sql.Expr) bool { return !own(e) }) {
			if summed, ok := summedColumns(p, items, fact.table); ok {
				j.summary, j.factLeft, j.summed = true, factLeft, summed
				j.split = len(sources[0].schema.Columns)
				factArr := j.arrL
				if !factLeft {
					factArr = j.arrR
				}
				j.sumID = "summary(" + factArr + ", [" + joinExprs(summed, ", ") + "])"
				return
			}
		}
	}
}

// isPrimaryKey reports whether join keys are a table's primary key
// columns, each once.
func isPrimaryKey(keys []sql.Expr, src sourceTable) bool {
	if len(keys) != len(src.schema.Key) {
		return false
	}
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		ref, ok := k.(*sql.ColumnRef)
		if !ok || ref.Table != src.table || seen[ref.Column] {
			return false
		}
		seen[ref.Column] = true
	}
	for _, c := range src.schema.Key {
		if !seen[src.schema.Columns[c].Name] {
			return false
		}
	}
	return true
}

// summedColumns returns the distinct fact columns a view's SUMs and AVGs
// read, sorted canonically, or false if an aggregate is neither those nor
// a COUNT, or sums anything but a column of the fact table.
func summedColumns(p *ivm.DeltaPlan, items []sql.Expr, fact string) ([]sql.Expr, bool) {
	var summed []sql.Expr
	for i, k := range p.AggKinds() {
		switch k {
		case exec.AggCount:
			continue
		case exec.AggSum, exec.AggAvg:
		default:
			return nil, false
		}
		ref, ok := items[p.GroupCols+i].(*sql.ColumnRef)
		if !ok || ref.Table != fact {
			return nil, false
		}
		if !slices.ContainsFunc(summed, func(e sql.Expr) bool { return e.String() == ref.String() }) {
			summed = append(summed, ref)
		}
	}
	sortExprs(summed)
	return summed, true
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
// view plan reads, left before right, inner joins first, and last the
// summary of its top join's fact side it reads, if it does (summarize),
// without building any state. Two views share exactly the arrangements and summaries whose
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
	if top.summary {
		ids = append(ids, top.sumID)
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
	arrList []*arrangement          // the same in creation order, which Trim nets them in
	hits    uint64
	arrHits uint64
	logs    []*deltaLog // one per operator with sinks, in order of their first sink; its readers are the sinks
	ctr     counters
	arena   deltaArena        // the rows and coordinates deltas carry
	wm      map[string]uint64 // Trim's watermark, reused across calls
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
// the top operator's delta log, rebuilds the view's first content from
// the graph, and returns the handle. It builds nothing until every check
// has passed: bind resolves and compiles the operators the graph lacks,
// newViewHandle checks the sink, and only then does realize build the
// missing operators, which cannot fail. A view that is refused leaves the
// graph as it was.
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
	b := n.base()
	if b.log == nil {
		b.log = &deltaLog{wm: make([]uint64, len(n.tables())), ctr: &g.ctr}
		n.addOut(b.log)
		g.logs = append(g.logs, b.log)
	}
	return b.log
}

// bind resolves everything realize needs to build a spec tree's missing
// operators, without touching the graph: scan tables, each operator's
// columns and tables, filter conjuncts, join keys and residuals compiled
// against them. An interned operator takes its columns and tables from
// its node, and nothing below it is bound.
func (g *Graph) bind(s *opSpec) error {
	if n, ok := g.nodes[s.sig]; ok {
		s.n, s.cols, s.tabs = n, n.cols(), n.tables()
		if s.summary {
			j := n.(*joinNode)
			fact := j.rstate
			if s.factLeft {
				fact = j.lstate
			}
			if j.fact != nil && j.fact != fact {
				// Its views read the join through the other side's summary.
				s.summary = false
				return nil
			}
			var err error
			s.sumArgs, err = bindScalars(s.summed, fact.child.cols())
			return err
		}
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
		s.llit, s.rlit = literalOf(s.lwhere, l.cols), literalOf(s.rwhere, r.cols)
		s.where, err = bindConjunction(s.residual, s.cols)
		if err == nil && s.summary {
			fact := r
			if s.factLeft {
				fact = l
			}
			s.sumArgs, err = bindScalars(s.summed, fact.cols)
		}
	}
	return err
}

// realize returns the node of a bound spec, building it — and recursively
// its children — unless it is interned. Reused operators, the whole of a
// reused subtree, count as intern hits.
func (g *Graph) realize(s *opSpec) node {
	if s.n != nil {
		s.walk(func(*opSpec) { g.hits++ })
		if s.summary {
			s.n.(*joinNode).sumFact(s.factLeft, s.summedKeys(), s.sumArgs)
		}
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
		j := newJoinNode(s.sig, g.arrange(s.arrL, left, s.lkeys), g.arrange(s.arrR, right, s.rkeys), s.lpred, s.rpred, s.where, s.llit, s.rlit, s.cols)
		if s.summary {
			j.sumFact(s.factLeft, s.summedKeys(), s.sumArgs)
		}
		n = j
	}
	g.nodes[s.sig] = n
	return n
}

// summedKeys is the canonical text of the columns a view that reads its
// top join through a summary sums.
func (s *opSpec) summedKeys() []string {
	keys := make([]string, len(s.summed))
	for i, e := range s.summed {
		keys[i] = e.String()
	}
	return keys
}

// sumColumns is where the columns summedKeys names will be in the
// summaries the top join emits once realize has made it sum them: the
// join's columns, if it is interned, then the spec's it lacks.
func (s *opSpec) sumColumns() []string {
	var have []string
	if s.n != nil {
		have = s.n.(*joinNode).sumKeys
	}
	cols := slices.Clone(have)
	for _, k := range s.summedKeys() {
		if !slices.Contains(cols, k) {
			cols = append(cols, k)
		}
	}
	return cols
}

// literal is a join input's residual when it is one `column = literal`
// with a literal of the column's own type — a string for TEXT, an integer
// for INT: col is the column's position in the input's rows, value the
// literal. Such a column holds values of its type alone, and values of
// one type that compare equal are == as structs, so a row passes exactly
// when its value is == value (dispatch). INT = 3.0 compares as floats and
// is not one.
type literal struct {
	col   int
	value storage.Value
}

// literalOf returns the literal equality an input's residual is, or nil.
func literalOf(conjs []sql.Expr, cols []exec.Col) *literal {
	if len(conjs) != 1 {
		return nil
	}
	be, _ := conjs[0].(*sql.BinaryExpr)
	if be == nil || be.Op != "=" {
		return nil
	}
	ref, lit := be.Left, be.Right
	if _, ok := ref.(*sql.ColumnRef); !ok {
		ref, lit = lit, ref
	}
	col := -1
	if c, ok := ref.(*sql.ColumnRef); ok {
		col = slices.IndexFunc(cols, func(x exec.Col) bool { return x.Table == c.Table && x.Name == c.Column })
	}
	var v storage.Value
	switch l := lit.(type) {
	case *sql.StringLit:
		v = storage.S(l.V)
	case *sql.IntLit:
		v = storage.I(l.V)
	default:
		return nil
	}
	if col < 0 || v.T != cols[col].Type {
		return nil
	}
	return &literal{col: col, value: v}
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
	g.arrList = append(g.arrList, a)
	return a
}

// Ingest appends one base-table modification to the table's ingest log —
// the one record of the arrival, which every view reading the table
// counts its backlog against — and propagates the resulting deltas
// through the whole shared graph, into every view's sink, in one pass.
// It must follow the modification's write to the live table, before any
// later write to the table: the graph reads the rows from the table and
// refuses a modification the table does not reflect.
func (g *Graph) Ingest(table string, mod ivm.Mod) error {
	sc, ok := g.scans[table]
	if !ok {
		return fmt.Errorf("dataflow: no subscribed view reads table %q", table)
	}
	return sc.ingest(mod)
}

// Trim garbage-collects graph state below the watermarks the sinks'
// cursors set: cursors never move back, a recovery's included. Arrangement
// entries fully below the per-table watermark (the minimum over the sinks
// reading the table) are netted into their bucket's base, once per
// arrangement however many joins read it; the cost is proportional to what
// arrived since the watermark last covered it, not to table sizes or to
// the number of joins sharing an input. Each delta log drops what all of
// its own readers have drained, so a stuck view holds back its own
// operator's log and no other.
func (g *Graph) Trim() {
	clear(g.wm)
	for _, l := range g.logs {
		for _, h := range l.readers {
			for i, t := range h.tabOrder {
				if cur, seen := g.wm[t]; !seen || h.cursors[i] < cur {
					g.wm[t] = h.cursors[i]
				}
			}
		}
	}
	for _, a := range g.arrList {
		a.trim(g.wm)
	}
	for _, l := range g.logs {
		l.trim()
	}
}

// sortedKeys returns the map's keys in sorted order — the iteration order
// wherever one is needed, so none leaks from the map.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
	// cursors covering it. Both should track table sizes and drain lag,
	// not run length.
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
	// Folds counts the deltas drains have folded into view states, and
	// FoldVisits the delta-log entries their walks visited to find them:
	// FoldVisits/Folds is what a fold costs in log entries walked. Both
	// are deterministic work counts; recovery's rebuilds are in neither.
	Folds      uint64
	FoldVisits uint64
	// RebuildVisits counts the live-table rows and arrangement entries the
	// sinks' rebuilds — at Subscribe and at each recovery — have visited: a
	// rebuild of a view over a join whose side residual is one literal
	// equality visits the entries at that literal's keys alone, whatever
	// the arrangements hold. A deterministic work count.
	RebuildVisits uint64
}

// Stats snapshots the graph shape. It reads counters and walks the delta
// logs and the operator list, never operator state.
func (g *Graph) Stats() GraphStats {
	st := GraphStats{
		Nodes: len(g.nodes), InternHits: g.hits,
		Arrangements: len(g.arrs), ArrangementHits: g.arrHits,
		StateRows: g.ctr.stateRows, RetainedDeltas: g.ctr.retained, TrimVisited: g.ctr.trimVisited,
		Probes: g.ctr.probes, Products: g.ctr.products,
		Folds: g.ctr.folds, FoldVisits: g.ctr.foldVisits, RebuildVisits: g.ctr.rebuilds,
	}
	for _, l := range g.logs {
		st.Views += len(l.readers)
	}
	for _, n := range g.nodes {
		if f := n.fanout(); f > st.MaxFanout {
			st.MaxFanout = f
		}
	}
	return st
}
