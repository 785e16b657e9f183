package plan

import (
	"fmt"
	"strings"

	"abivm/internal/exec"
)

// Explain renders an operator tree as an indented physical plan, in the
// spirit of SQL EXPLAIN output:
//
//	Project [MIN(PS.supplycost)]
//	└─ HashAgg group=[] aggs=[MIN]
//	   └─ Filter
//	      └─ IndexLoopJoin inner=region
//	         └─ IndexLoopJoin inner=nation
//	            └─ IndexLoopJoin inner=supplier
//	               └─ SeqScan partsupp AS PS
//
// It is intentionally structural: costs are the business of the
// costmodel package, not the explainer.
func Explain(op exec.Op) string {
	var sb strings.Builder
	explain(&sb, op, "", "", "")
	return sb.String()
}

// explain renders one node. head is the branch glyph for this line; tail
// is the indentation its children inherit.
func explain(sb *strings.Builder, op exec.Op, indent, head, tail string) {
	line := func(format string, args ...any) {
		fmt.Fprintf(sb, "%s%s"+format+"\n", append([]any{indent, head}, args...)...)
	}
	child := indent + tail
	one := func(c exec.Op) { explain(sb, c, child, "└─ ", "   ") }
	two := func(a, b exec.Op) {
		explain(sb, a, child, "├─ ", "│  ")
		explain(sb, b, child, "└─ ", "   ")
	}
	switch x := op.(type) {
	case *exec.Limit:
		line("Limit %d", x.N())
		one(x.Input())
	case *exec.Sort:
		line("Sort %s", x.Describe())
		one(x.Input())
	case *exec.Project:
		line("Project %s", colList(x.Columns()))
		one(x.Input())
	case *exec.Filter:
		line("Filter")
		one(x.Input())
	case *exec.HashAgg:
		line("HashAgg %s", x.Describe())
		one(x.Input())
	case *exec.HashJoin:
		line("HashJoin %s", x.Describe())
		two(x.Left(), x.Right())
	case *exec.IndexLoopJoin:
		line("IndexLoopJoin %s", x.Describe())
		one(x.Left())
	case *exec.SeqScan:
		line("SeqScan %s", x.Describe())
	case *exec.RowsSource:
		line("RowsSource (%d cols)", len(x.Columns()))
	default:
		line("%T", op)
	}
}

func colList(cols []exec.Col) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = c.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
