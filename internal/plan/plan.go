package plan

import (
	"fmt"
	"sort"

	"abivm/internal/exec"
	"abivm/internal/sql"
	"abivm/internal/storage"
)

// Options tunes compilation.
type Options struct {
	// Sources replaces the named FROM aliases with arbitrary operators
	// (e.g. a delta batch). At most one alias may be replaced; it becomes
	// the driving (leftmost) input of the join so the remaining base
	// tables can be probed through their indexes — the shape of the
	// paper's incremental maintenance queries.
	Sources map[string]exec.Op
	// Resolve maps a FROM table name to a stored table. When nil, tables
	// resolve through the db passed to Compile. The IVM engine uses this
	// to point the planner at its view-consistent replicas.
	Resolve func(name string) (*storage.Table, error)
	// Stats receives operator work-unit charges; defaults to db.Stats().
	Stats *storage.Stats
}

// Compile turns a parsed SELECT into an executable operator tree.
func Compile(sel *sql.Select, db *storage.DB, opts *Options) (exec.Op, error) {
	if opts == nil {
		opts = &Options{}
	}
	resolve := opts.Resolve
	if resolve == nil {
		if db == nil {
			return nil, fmt.Errorf("plan: need a database or a Resolve option")
		}
		resolve = db.Table
	}
	stats := opts.Stats
	if stats == nil && db != nil {
		stats = db.Stats()
	}
	c := &compiler{sel: sel, resolve: resolve, stats: stats, sources: opts.Sources}
	return c.compile()
}

// fromEntry is one bound FROM-clause table.
type fromEntry struct {
	alias  string
	table  *storage.Table // nil when overridden by a source
	source exec.Op        // non-nil when overridden
	cols   []exec.Col
}

// joinEdge is one equi-join conjunct between two aliases.
type joinEdge struct {
	a, b       string // aliases
	colA, colB string // join column names on each side
	expr       sql.Expr
}

type compiler struct {
	sel     *sql.Select
	resolve func(string) (*storage.Table, error)
	stats   *storage.Stats
	sources map[string]exec.Op

	entries map[string]*fromEntry
	order   []string // FROM order, for determinism
	colOwn  map[string]string
	edges   []joinEdge
	local   map[string][]sql.Expr // single-table conjuncts per alias
	residue []sql.Expr
}

func (c *compiler) compile() (exec.Op, error) {
	if err := c.bindFrom(); err != nil {
		return nil, err
	}
	if err := c.classifyWhere(); err != nil {
		return nil, err
	}
	op, joined, err := c.buildJoins()
	if err != nil {
		return nil, err
	}
	// Residual predicates (cross-table non-equi conjuncts).
	for _, e := range c.residue {
		pred, err := bindPredicate(e, op.Columns())
		if err != nil {
			return nil, err
		}
		op = exec.NewFilter(op, pred)
	}
	_ = joined
	if c.sel.HasAggregates() || len(c.sel.GroupBy) > 0 {
		op, err = c.buildAggregate(op)
	} else {
		op, err = c.buildProjection(op)
	}
	if err != nil {
		return nil, err
	}
	return c.applyOrderLimit(op)
}

// applyOrderLimit places Sort and Limit above the projection. ORDER BY
// keys resolve against the output columns (select aliases or projected
// column names), matching SQL's output-ordering semantics.
func (c *compiler) applyOrderLimit(op exec.Op) (exec.Op, error) {
	if len(c.sel.OrderBy) > 0 {
		outCols := op.Columns()
		keys := make([]exec.SortKey, len(c.sel.OrderBy))
		for i, o := range c.sel.OrderBy {
			idx := exec.FindCol(outCols, o.Expr.Table, o.Expr.Column)
			switch idx {
			case -1:
				return nil, fmt.Errorf("plan: ORDER BY column %s is not in the select output", o.Expr)
			case -2:
				return nil, fmt.Errorf("plan: ambiguous ORDER BY column %s", o.Expr)
			}
			keys[i] = exec.SortKey{Col: idx, Desc: o.Desc}
		}
		sorted, err := exec.NewSort(op, keys, c.stats)
		if err != nil {
			return nil, err
		}
		op = sorted
	}
	if c.sel.Limit != nil {
		limited, err := exec.NewLimit(op, *c.sel.Limit)
		if err != nil {
			return nil, err
		}
		op = limited
	}
	return op, nil
}

func (c *compiler) bindFrom() error {
	if len(c.sel.From) == 0 {
		return fmt.Errorf("plan: empty FROM clause")
	}
	c.entries = make(map[string]*fromEntry, len(c.sel.From))
	c.colOwn = make(map[string]string)
	overrides := 0
	for _, tr := range c.sel.From {
		if _, dup := c.entries[tr.Alias]; dup {
			return fmt.Errorf("plan: duplicate table alias %q", tr.Alias)
		}
		fe := &fromEntry{alias: tr.Alias}
		if src, ok := c.sources[tr.Alias]; ok {
			fe.source = src
			fe.cols = src.Columns()
			overrides++
		} else {
			tbl, err := c.resolve(tr.Table)
			if err != nil {
				return err
			}
			fe.table = tbl
			schema := tbl.Schema()
			fe.cols = make([]exec.Col, len(schema.Columns))
			for i, col := range schema.Columns {
				fe.cols[i] = exec.Col{Table: tr.Alias, Name: col.Name, Type: col.Type}
			}
		}
		c.entries[tr.Alias] = fe
		c.order = append(c.order, tr.Alias)
		for _, col := range fe.cols {
			if owner, seen := c.colOwn[col.Name]; seen && owner != tr.Alias {
				c.colOwn[col.Name] = "" // ambiguous
			} else if !seen {
				c.colOwn[col.Name] = tr.Alias
			}
		}
	}
	if overrides > 1 {
		return fmt.Errorf("plan: at most one FROM alias may be replaced by a source, got %d", overrides)
	}
	// Every named source must correspond to a FROM alias; validate in
	// sorted order so multiple unknown aliases always fail on the same
	// one.
	sourceAliases := make([]string, 0, len(c.sources))
	for alias := range c.sources {
		sourceAliases = append(sourceAliases, alias)
	}
	sort.Strings(sourceAliases)
	for _, alias := range sourceAliases {
		if _, ok := c.entries[alias]; !ok {
			return fmt.Errorf("plan: source for unknown alias %q", alias)
		}
	}
	return nil
}

// ownerOf resolves the owning alias of a column reference, "" if unknown
// or ambiguous.
func (c *compiler) ownerOf(ref *sql.ColumnRef) string {
	if ref.Table != "" {
		return ref.Table
	}
	return c.colOwn[ref.Column]
}

func (c *compiler) classifyWhere() error {
	c.local = make(map[string][]sql.Expr)
	for _, e := range c.sel.Where {
		b, ok := e.(*sql.BinaryExpr)
		if !ok {
			return fmt.Errorf("plan: WHERE conjunct %s is not a comparison", e)
		}
		// Equi-join edge: col = col across different aliases.
		if b.Op == "=" {
			lr, lok := b.Left.(*sql.ColumnRef)
			rr, rok := b.Right.(*sql.ColumnRef)
			if lok && rok {
				la, ra := c.ownerOf(lr), c.ownerOf(rr)
				if la == "" || ra == "" {
					return fmt.Errorf("plan: cannot resolve tables of join predicate %s", e)
				}
				if la != ra {
					c.edges = append(c.edges, joinEdge{a: la, b: ra, colA: lr.Column, colB: rr.Column, expr: e})
					continue
				}
			}
		}
		// Single-table or residual predicate.
		tables := map[string]bool{}
		exprTables(e, tables, func(col string) string { return c.colOwn[col] })
		if len(tables) == 1 {
			for alias := range tables {
				if _, known := c.entries[alias]; !known {
					//lint:ignore maporder tables has exactly one entry here
					return fmt.Errorf("plan: predicate %s references unknown table %q", e, alias)
				}
				c.local[alias] = append(c.local[alias], e)
			}
			continue
		}
		c.residue = append(c.residue, e)
	}
	return nil
}

// pickDriver chooses the leftmost input: an overridden source wins;
// otherwise the alias with an equality literal filter; ties and the rest
// break toward the smallest table, then FROM order.
func (c *compiler) pickDriver() string {
	for _, alias := range c.order {
		if c.entries[alias].source != nil {
			return alias
		}
	}
	hasEqFilter := func(alias string) bool {
		for _, e := range c.local[alias] {
			if b, ok := e.(*sql.BinaryExpr); ok && b.Op == "=" {
				return true
			}
		}
		return false
	}
	best := ""
	bestScore := -1
	bestSize := 0
	for _, alias := range c.order {
		score := 0
		if hasEqFilter(alias) {
			score = 1
		}
		size := 0
		if t := c.entries[alias].table; t != nil {
			size = t.Len()
		}
		if best == "" || score > bestScore || (score == bestScore && size < bestSize) {
			best, bestScore, bestSize = alias, score, size
		}
	}
	return best
}

// scanWithFilters reads one alias — a sequential scan of its table, or
// its bound source — and applies its single-table predicates.
func (c *compiler) scanWithFilters(alias string) (exec.Op, error) {
	fe := c.entries[alias]
	var op exec.Op
	if fe.source != nil {
		op = fe.source
	} else {
		op = exec.NewSeqScan(fe.table, alias)
	}
	for _, e := range c.local[alias] {
		pred, err := bindPredicate(e, op.Columns())
		if err != nil {
			return nil, err
		}
		op = exec.NewFilter(op, pred)
	}
	return op, nil
}

// buildJoins assembles the left-deep join tree.
func (c *compiler) buildJoins() (exec.Op, map[string]bool, error) {
	driver := c.pickDriver()
	op, err := c.scanWithFilters(driver)
	if err != nil {
		return nil, nil, err
	}
	joined := map[string]bool{driver: true}
	remaining := len(c.order) - 1
	for remaining > 0 {
		next, keysJoined, keysNew, err := c.nextJoin(joined)
		if err != nil {
			return nil, nil, err
		}
		op, err = c.joinInto(op, next, keysJoined, keysNew)
		if err != nil {
			return nil, nil, err
		}
		joined[next] = true
		remaining--
	}
	return op, joined, nil
}

// nextJoin selects the next alias connected to the joined set and the
// join column pairs (on the joined side and the new side). Aliases with
// an index covering their join columns are preferred.
func (c *compiler) nextJoin(joined map[string]bool) (string, []string, []string, error) {
	type candidate struct {
		alias               string
		joinedCols, newCols []string
		indexed             bool
		order               int
	}
	var cands []candidate
	for pos, alias := range c.order {
		if joined[alias] {
			continue
		}
		var jc, nc []string
		for _, e := range c.edges {
			switch {
			case e.a == alias && joined[e.b]:
				nc = append(nc, e.colA)
				jc = append(jc, e.colB+"\x00"+e.b)
			case e.b == alias && joined[e.a]:
				nc = append(nc, e.colB)
				jc = append(jc, e.colA+"\x00"+e.a)
			}
		}
		if len(nc) == 0 {
			continue
		}
		indexed := false
		if t := c.entries[alias].table; t != nil && t.IndexOn(nc...) != nil {
			indexed = true
		}
		cands = append(cands, candidate{alias: alias, joinedCols: jc, newCols: nc, indexed: indexed, order: pos})
	}
	if len(cands) == 0 {
		return "", nil, nil, fmt.Errorf("plan: query requires a cross product (no join predicate connects the remaining tables)")
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].indexed != cands[j].indexed {
			return cands[i].indexed
		}
		return cands[i].order < cands[j].order
	})
	best := cands[0]
	return best.alias, best.joinedCols, best.newCols, nil
}

// joinInto joins alias `next` into the current tree. keysJoined entries
// are "column\x00alias" pairs identifying the joined-side key columns.
func (c *compiler) joinInto(cur exec.Op, next string, keysJoined, keysNew []string) (exec.Op, error) {
	curCols := cur.Columns()
	leftKeys := make([]int, len(keysJoined))
	for i, kc := range keysJoined {
		col, alias := splitKey(kc)
		idx := exec.FindCol(curCols, alias, col)
		if idx < 0 {
			return nil, fmt.Errorf("plan: join key %s.%s not found in current output", alias, col)
		}
		leftKeys[i] = idx
	}
	fe := c.entries[next]
	// Index-nested-loop path: base table with a covering index and no
	// source override.
	if fe.table != nil {
		if ix := fe.table.IndexOn(keysNew...); ix != nil {
			op, err := exec.NewIndexLoopJoin(cur, fe.table, next, ix, leftKeys)
			if err != nil {
				return nil, err
			}
			return c.applyLocalFilters(op, next)
		}
	}
	// Hash-join path: build on the new table's filtered scan.
	build, err := c.scanWithFilters(next)
	if err != nil {
		return nil, err
	}
	rightKeys := make([]int, len(keysNew))
	for i, col := range keysNew {
		idx := exec.FindCol(build.Columns(), next, col)
		if idx == -1 {
			// Overridden sources may expose unqualified columns.
			idx = exec.FindCol(build.Columns(), "", col)
		}
		if idx < 0 {
			return nil, fmt.Errorf("plan: join key %s.%s not found", next, col)
		}
		rightKeys[i] = idx
	}
	return exec.NewHashJoin(cur, build, leftKeys, rightKeys, c.stats)
}

// applyLocalFilters applies the single-table predicates of alias on top
// of op (used after index joins, where pushdown below the join is not
// possible).
func (c *compiler) applyLocalFilters(op exec.Op, alias string) (exec.Op, error) {
	for _, e := range c.local[alias] {
		pred, err := bindPredicate(e, op.Columns())
		if err != nil {
			return nil, err
		}
		op = exec.NewFilter(op, pred)
	}
	return op, nil
}

func splitKey(s string) (col, alias string) {
	for i := 0; i < len(s); i++ {
		if s[i] == 0 {
			return s[:i], s[i+1:]
		}
	}
	return s, ""
}

// buildProjection emits the SELECT list for non-aggregate queries.
func (c *compiler) buildProjection(op exec.Op) (exec.Op, error) {
	cols := make([]exec.Col, len(c.sel.Items))
	exprs := make([]exec.Scalar, len(c.sel.Items))
	for i, item := range c.sel.Items {
		scalar, typ, err := bindScalar(item.Expr, op.Columns())
		if err != nil {
			return nil, err
		}
		col := exec.Col{Name: item.Alias, Type: typ}
		if col.Name == "" {
			// Plain column references keep their qualified identity so
			// ORDER BY (and callers) can resolve them; computed items are
			// named by their source text.
			if ref, ok := item.Expr.(*sql.ColumnRef); ok {
				col.Table = ref.Table
				col.Name = ref.Column
			} else {
				col.Name = item.Expr.String()
			}
		}
		cols[i] = col
		exprs[i] = scalar
	}
	return exec.NewProject(op, cols, exprs, c.stats)
}

// buildAggregate places HashAgg over the join output and projects the
// SELECT list in its written order.
func (c *compiler) buildAggregate(op exec.Op) (exec.Op, error) {
	inCols := op.Columns()
	// Resolve GROUP BY columns.
	groupBy := make([]int, len(c.sel.GroupBy))
	for i, g := range c.sel.GroupBy {
		idx := exec.FindCol(inCols, g.Table, g.Column)
		switch idx {
		case -1:
			return nil, fmt.Errorf("plan: unknown GROUP BY column %s", g)
		case -2:
			return nil, fmt.Errorf("plan: ambiguous GROUP BY column %s", g)
		}
		groupBy[i] = idx
	}
	// Gather aggregates from the select list; map each select item to an
	// output position.
	var specs []exec.AggSpec
	type itemRef struct {
		aggIdx   int // >= 0: aggregate output
		groupIdx int // >= 0: group-by column
	}
	refs := make([]itemRef, len(c.sel.Items))
	for i, item := range c.sel.Items {
		switch x := item.Expr.(type) {
		case *sql.AggExpr:
			spec, err := c.bindAgg(x, inCols, item.Alias)
			if err != nil {
				return nil, err
			}
			refs[i] = itemRef{aggIdx: len(specs), groupIdx: -1}
			specs = append(specs, spec)
		case *sql.ColumnRef:
			idx := exec.FindCol(inCols, x.Table, x.Column)
			if idx < 0 {
				return nil, fmt.Errorf("plan: unknown column %s", x)
			}
			pos := -1
			for gi, g := range groupBy {
				if g == idx {
					pos = gi
					break
				}
			}
			if pos < 0 {
				return nil, fmt.Errorf("plan: column %s is neither aggregated nor in GROUP BY", x)
			}
			refs[i] = itemRef{aggIdx: -1, groupIdx: pos}
		default:
			return nil, fmt.Errorf("plan: select item %s mixes aggregates and scalars unsupported", item.Expr)
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("plan: GROUP BY without aggregates is unsupported")
	}
	agg, err := exec.NewHashAgg(op, groupBy, specs, c.stats)
	if err != nil {
		return nil, err
	}
	// Final projection reorders agg output to the written SELECT order.
	aggCols := agg.Columns()
	outCols := make([]exec.Col, len(refs))
	exprs := make([]exec.Scalar, len(refs))
	for i, ref := range refs {
		var src int
		if ref.aggIdx >= 0 {
			src = len(groupBy) + ref.aggIdx
		} else {
			src = ref.groupIdx
		}
		col := aggCols[src]
		if alias := c.sel.Items[i].Alias; alias != "" {
			col.Name = alias
			col.Table = ""
		}
		outCols[i] = col
		srcIdx := src
		exprs[i] = func(r storage.Row) storage.Value { return r[srcIdx] }
	}
	return exec.NewProject(agg, outCols, exprs, c.stats)
}

func (c *compiler) bindAgg(x *sql.AggExpr, inCols []exec.Col, alias string) (exec.AggSpec, error) {
	kind, err := aggKind(x.Func)
	if err != nil {
		return exec.AggSpec{}, err
	}
	name := alias
	if name == "" {
		name = x.String()
	}
	if x.Arg == nil {
		if kind != exec.AggCount {
			return exec.AggSpec{}, fmt.Errorf("plan: %s requires an argument", x.Func)
		}
		return exec.AggSpec{Kind: exec.AggCount, Name: name}, nil
	}
	scalar, typ, err := bindScalar(x.Arg, inCols)
	if err != nil {
		return exec.AggSpec{}, err
	}
	if typ == storage.TString && kind != exec.AggMin && kind != exec.AggMax && kind != exec.AggCount {
		return exec.AggSpec{}, fmt.Errorf("plan: %s over a string argument", x.Func)
	}
	return exec.AggSpec{Kind: kind, Arg: scalar, Name: name}, nil
}

func aggKind(f sql.AggFunc) (exec.AggKind, error) {
	switch f {
	case sql.AggMin:
		return exec.AggMin, nil
	case sql.AggMax:
		return exec.AggMax, nil
	case sql.AggSum:
		return exec.AggSum, nil
	case sql.AggCount:
		return exec.AggCount, nil
	case sql.AggAvg:
		return exec.AggAvg, nil
	}
	return 0, fmt.Errorf("plan: unknown aggregate %q", f)
}
