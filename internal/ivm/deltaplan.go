package ivm

import (
	"fmt"
	"strings"

	"abivm/internal/exec"
	"abivm/internal/plan"
	"abivm/internal/sql"
	"abivm/internal/storage"
)

// DeltaSource is one base table feeding a maintained view: the FROM
// alias (the paper's R_i) and the table it binds to.
type DeltaSource struct {
	Alias string
	Table string
}

// DeltaPlan is the maintainable form of a view definition: the bound
// view query, the delta query used to propagate base-table changes, and
// the per-item mapping from delta-query output to view output. It is
// derived once by PlanView, shared by every Maintainer for the view
// (Maintainer.Plan returns it), and inspectable by the compiler front
// end (EXPLAIN IVM renders it via Explain).
type DeltaPlan struct {
	// View is the parsed view definition.
	View *sql.Select
	// Delta is the delta query: for select-project-join views the view
	// query itself; for aggregate views the same join emitting
	// (group columns..., aggregate arguments...) so deltas can be folded
	// into per-group state.
	Delta *sql.Select
	// Sources lists the base tables in FROM order.
	Sources []DeltaSource
	// Aggregate reports whether the view folds rows into groups.
	Aggregate bool
	// GroupCols is the number of leading group-by columns in Delta's
	// output (0 for SPJ views and grand aggregates).
	GroupCols int

	aggKinds []exec.AggKind // per aggregate item, in select order
	// aggSet names, per aggregate item, the aggregate that keeps the value
	// multiset it reads: the first MIN or MAX over the same argument
	// expression — itself when it is that one — and -1 for the other kinds.
	// A group's MINs and MAXes over one argument thus share one multiset.
	aggSet   []int
	itemRefs []itemRef // select item -> group col or aggregate index
}

// PlanView parses a view definition and derives its delta plan. It is
// pure analysis — no database access — so the compiler can reject
// unmaintainable views before touching any tables. Rejections of
// well-formed SQL the maintainer cannot handle are *sql.UnsupportedError
// values carrying the source position of the offending construct.
func PlanView(query string) (*DeltaPlan, error) {
	sel, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return PlanSelect(sel)
}

// PlanSelect is PlanView over an already-parsed view definition. The
// compiler front end uses it directly so diagnostics keep the positions
// of the original catalog source instead of a re-rendered query.
func PlanSelect(sel *sql.Select) (*DeltaPlan, error) {
	if len(sel.OrderBy) > 0 {
		return nil, sql.Unsupported(sel.OrderByPos, "ORDER BY")
	}
	if sel.Limit != nil {
		return nil, sql.Unsupported(sel.LimitPos, "LIMIT")
	}
	p := &DeltaPlan{View: sel}
	seenAlias := map[string]bool{}
	seenTable := map[string]bool{}
	for _, tr := range sel.From {
		if seenAlias[tr.Alias] {
			return nil, sql.Unsupported(0, "duplicate alias %q", tr.Alias)
		}
		if seenTable[tr.Table] {
			return nil, sql.Unsupported(0, "self-join (table %q appears twice)", tr.Table)
		}
		seenAlias[tr.Alias] = true
		seenTable[tr.Table] = true
		p.Sources = append(p.Sources, DeltaSource{Alias: tr.Alias, Table: tr.Table})
	}
	if err := p.deriveDelta(); err != nil {
		return nil, err
	}
	return p, nil
}

// deriveDelta derives the delta query and the select-item mapping for
// rendering results.
func (p *DeltaPlan) deriveDelta() error {
	sel := p.View
	if !sel.HasAggregates() && len(sel.GroupBy) == 0 {
		// SPJ view: the delta query is the view query itself.
		p.Delta = sel
		return nil
	}
	p.Aggregate = true
	p.GroupCols = len(sel.GroupBy)
	ds := &sql.Select{From: sel.From, Where: sel.Where}
	for _, g := range sel.GroupBy {
		ds.Items = append(ds.Items, sql.SelectItem{Expr: g})
	}
	p.itemRefs = make([]itemRef, len(sel.Items))
	var args []string // per aggregate item, its argument's canonical text
	for i, item := range sel.Items {
		switch x := item.Expr.(type) {
		case *sql.AggExpr:
			arg := x.Arg
			if arg == nil {
				if x.Func != sql.AggCount {
					return sql.Unsupported(x.Pos, "%s without an argument", x.Func)
				}
				arg = &sql.IntLit{V: 1}
			}
			kind, ok := plan.AggKind(x.Func)
			if !ok {
				return sql.Unsupported(x.Pos, "aggregate %q", x.Func)
			}
			p.itemRefs[i] = itemRef{groupIdx: -1, aggIdx: len(p.aggKinds)}
			p.aggKinds = append(p.aggKinds, kind)
			args = append(args, arg.String())
			p.aggSet = append(p.aggSet, multisetOf(p.aggKinds, args))
			ds.Items = append(ds.Items, sql.SelectItem{Expr: arg})
		case *sql.ColumnRef:
			pos := -1
			for gi, g := range sel.GroupBy {
				if g.Column == x.Column && (g.Table == x.Table || g.Table == "" || x.Table == "") {
					pos = gi
					break
				}
			}
			if pos < 0 {
				return sql.Unsupported(x.Pos, "select column %s outside GROUP BY", x)
			}
			p.itemRefs[i] = itemRef{groupIdx: pos, aggIdx: -1}
		default:
			return sql.Unsupported(0, "select item %s in an aggregate view", item.Expr)
		}
	}
	p.Delta = ds
	return nil
}

// multisetOf resolves aggSet for the last aggregate of kinds: the first
// MIN or MAX whose argument text equals its own, or -1 when it is neither.
func multisetOf(kinds []exec.AggKind, args []string) int {
	minmax := func(k exec.AggKind) bool { return k == exec.AggMin || k == exec.AggMax }
	last := len(kinds) - 1
	if !minmax(kinds[last]) {
		return -1
	}
	for j := 0; j < last; j++ {
		if minmax(kinds[j]) && args[j] == args[last] {
			return j
		}
	}
	return last
}

// AggKinds returns the kind of each aggregate, in select order: the
// aggregate whose argument is Delta's item GroupCols+i is the i-th. Empty
// for SPJ views. The slice is the plan's: callers must not modify it.
func (p *DeltaPlan) AggKinds() []exec.AggKind { return p.aggKinds }

// CheckDelta refuses a view whose bound delta query hands an aggregate an
// argument it cannot fold: a SUM or an AVG over a string. cols is the
// delta query's output schema as the planner bound it. Both engines call
// it before they fold the view's first row, so such a view is refused at
// subscription with an error naming the aggregate, never met at a fold.
func (p *DeltaPlan) CheckDelta(cols []exec.Col) error {
	aggs := 0
	for _, it := range p.View.Items {
		x, ok := it.Expr.(*sql.AggExpr)
		if !ok {
			continue
		}
		switch k := p.aggKinds[aggs]; {
		case k != exec.AggSum && k != exec.AggAvg:
		case cols[p.GroupCols+aggs].Type == storage.TString:
			return fmt.Errorf("ivm: %s over a string argument", x)
		}
		aggs++
	}
	return nil
}

// AggDescriptions renders the aggregate kinds in select order, for
// reports; empty for SPJ views.
func (p *DeltaPlan) AggDescriptions() []string {
	out := make([]string, 0, len(p.aggKinds))
	for _, it := range p.View.Items {
		if a, ok := it.Expr.(*sql.AggExpr); ok {
			out = append(out, a.String())
		}
	}
	return out
}

// Explain renders the delta plan for humans: the view and delta queries,
// the shape of the view state, and — per base table — the physical plan
// the maintainer executes when draining that table's delta queue (the
// alias replaced by a change cursor, everything else resolved through
// resolve, typically the replica or live database). The rendering is
// deterministic and size-free, so it is stable under data growth.
func (p *DeltaPlan) Explain(resolve func(string) (*storage.Table, error)) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "view:  %s\n", p.View)
	fmt.Fprintf(&sb, "delta: %s\n", p.Delta)
	if p.Aggregate {
		fmt.Fprintf(&sb, "state: groups (group cols %d, aggregates %s)\n",
			p.GroupCols, strings.Join(p.AggDescriptions(), " "))
	} else {
		sb.WriteString("state: bag of view rows with multiplicities\n")
	}
	var scratch storage.Stats
	for _, src := range p.Sources {
		tbl, err := resolve(src.Table)
		if err != nil {
			return "", err
		}
		d, err := p.prepare(src.Alias, tbl, resolve, &scratch)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "Δ%s (table %s):\n", src.Alias, src.Table)
		for _, line := range strings.Split(strings.TrimRight(plan.Explain(d.op), "\n"), "\n") {
			sb.WriteString("  ")
			sb.WriteString(line)
			sb.WriteString("\n")
		}
	}
	return sb.String(), nil
}

// prepare compiles the delta query with alias's table, tbl, replaced by a
// rebindable batch source, for drains and Explain alike; every other
// table resolves through resolve.
func (p *DeltaPlan) prepare(alias string, tbl *storage.Table, resolve func(string) (*storage.Table, error), stats *storage.Stats) (*preparedDelta, error) {
	schema := tbl.Schema()
	cols := make([]exec.Col, len(schema.Columns))
	for i, c := range schema.Columns {
		cols[i] = exec.Col{Table: alias, Name: c.Name, Type: c.Type}
	}
	src := exec.NewRowsSource(cols, nil, stats)
	op, err := plan.Compile(p.Delta, nil, &plan.Options{
		Sources: map[string]exec.Op{alias: src},
		Resolve: resolve,
		Stats:   stats,
	})
	if err != nil {
		return nil, err
	}
	return &preparedDelta{src: src, op: op}, nil
}
