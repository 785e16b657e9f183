// Package exec implements the physical query operators of the relational
// engine: sequential scans, static row sources (used for delta batches),
// filters, projections, hash joins, index-nested-loop joins, and hash
// aggregation. Operators follow the Volcano pull model (Open/Next/Close)
// and charge their work to the shared storage.Stats counters, which is
// what makes the engine's costs measurable by the costmodel package.
package exec

import (
	"fmt"

	"abivm/internal/storage"
)

// Col describes one output column of an operator: the table alias it
// originated from ("" for computed columns), its name, and its type.
type Col struct {
	Table string
	Name  string
	Type  storage.Type
}

// String renders the column as alias.name.
func (c Col) String() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// FindCol returns the position of the column matching a (table, name)
// reference in cols: if table is "" the name must be unambiguous.
// It returns -1 when not found and -2 when ambiguous.
func FindCol(cols []Col, table, name string) int {
	found := -1
	for i, c := range cols {
		if c.Name != name {
			continue
		}
		if table != "" {
			if c.Table == table {
				return i
			}
			continue
		}
		if found >= 0 {
			return -2
		}
		found = i
	}
	return found
}

// Op is a physical operator. The contract is: Open before Next; Next
// returns rows until (nil, false); Close releases state; Open again
// restarts the operator from scratch.
type Op interface {
	Columns() []Col
	Open() error
	Next() (storage.Row, bool)
	Close()
}

// rowBounder is implemented by operators that know, before Open, an
// upper bound on the number of rows they will emit. HashJoin reads it to
// decide which input to key its table on.
type rowBounder interface {
	RowBound() (n int, ok bool)
}

// rowBound returns op's row bound; ok is false when op does not know one.
func rowBound(op Op) (int, bool) {
	if b, ok := op.(rowBounder); ok {
		return b.RowBound()
	}
	return 0, false
}

// sourceOrdinaler is implemented by operators that emit left-major over
// one driving source — the RowsSource leftmost under them — and can say
// which of its rows the row Next last returned derives from. It is what
// lets a batch of retractions followed by insertions run through a plan
// once and still be told apart afterwards, without a sign column.
type sourceOrdinaler interface {
	SourceOrdinal() (i int, ok bool)
}

// sourceOrdinal returns the driving-source position behind op's last
// row; ok is false when op does not track one.
func sourceOrdinal(op Op) (int, bool) {
	if o, ok := op.(sourceOrdinaler); ok {
		return o.SourceOrdinal()
	}
	return 0, false
}

// Scalar evaluates an expression over an input row.
type Scalar func(storage.Row) storage.Value

// Predicate decides whether an input row passes a filter.
type Predicate func(storage.Row) bool

// Collect runs op to completion and returns all rows.
func Collect(op Op) ([]storage.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []storage.Row
	for {
		r, ok := op.Next()
		if !ok {
			return out, nil
		}
		out = append(out, r)
	}
}

// CollectSplit is Collect for a plan whose driving source holds a signed
// batch, the first minus rows retractions and the rest insertions: it
// also returns how many leading output rows derive from the retractions.
// Output is left-major, so those rows are a prefix.
func CollectSplit(op Op, minus int) (out []storage.Row, split int, err error) {
	if err := op.Open(); err != nil {
		return nil, 0, err
	}
	defer op.Close()
	split = -1
	for {
		r, ok := op.Next()
		if !ok {
			break
		}
		if split < 0 {
			i, ok := sourceOrdinal(op)
			if !ok {
				return nil, 0, fmt.Errorf("exec: %T does not report source ordinals", op)
			}
			if i >= minus {
				split = len(out)
			}
		}
		out = append(out, r)
	}
	if split < 0 {
		split = len(out)
	}
	return out, split, nil
}

// SeqScan reads all live rows of a table.
type SeqScan struct {
	table *storage.Table
	alias string
	cols  []Col
	cur   *storage.Cursor
}

// NewSeqScan returns a sequential scan over the table, exposing columns
// under the given alias.
func NewSeqScan(table *storage.Table, alias string) *SeqScan {
	schema := table.Schema()
	cols := make([]Col, len(schema.Columns))
	for i, c := range schema.Columns {
		cols[i] = Col{Table: alias, Name: c.Name, Type: c.Type}
	}
	return &SeqScan{table: table, alias: alias, cols: cols}
}

// Columns implements Op.
func (s *SeqScan) Columns() []Col { return s.cols }

// Open implements Op.
func (s *SeqScan) Open() error {
	s.cur = s.table.NewCursor()
	return nil
}

// Next implements Op.
func (s *SeqScan) Next() (storage.Row, bool) { return s.cur.Next() }

// Close implements Op.
func (s *SeqScan) Close() { s.cur = nil }

// RowBound reports the table's current row count.
func (s *SeqScan) RowBound() (int, bool) { return s.table.Len(), true }

// RowsSource emits a fixed set of rows; the IVM engine uses it to feed
// delta batches into operator trees.
type RowsSource struct {
	cols  []Col
	rows  []storage.Row
	stats *storage.Stats
	pos   int
}

// NewRowsSource returns a source emitting rows with the given schema.
// stats may be nil.
func NewRowsSource(cols []Col, rows []storage.Row, stats *storage.Stats) *RowsSource {
	return &RowsSource{cols: cols, rows: rows, stats: stats}
}

// Columns implements Op.
func (s *RowsSource) Columns() []Col { return s.cols }

// Open implements Op.
func (s *RowsSource) Open() error {
	s.pos = 0
	return nil
}

// Next implements Op.
func (s *RowsSource) Next() (storage.Row, bool) {
	if s.pos >= len(s.rows) {
		return nil, false
	}
	r := s.rows[s.pos]
	s.pos++
	if s.stats != nil {
		s.stats.RowsScanned++
	}
	return r, true
}

// Close implements Op.
func (s *RowsSource) Close() {}

// Reset rebinds the source to a new batch, so one compiled operator
// tree can be run over successive batches.
func (s *RowsSource) Reset(rows []storage.Row) { s.rows = rows }

// RowBound reports the batch length.
func (s *RowsSource) RowBound() (int, bool) { return len(s.rows), true }

// SourceOrdinal reports the position of the row Next last returned.
func (s *RowsSource) SourceOrdinal() (int, bool) { return s.pos - 1, true }

// Filter passes through rows satisfying a predicate.
type Filter struct {
	in   Op
	pred Predicate
}

// NewFilter wraps in with a predicate.
func NewFilter(in Op, pred Predicate) *Filter { return &Filter{in: in, pred: pred} }

// Columns implements Op.
func (f *Filter) Columns() []Col { return f.in.Columns() }

// Open implements Op.
func (f *Filter) Open() error { return f.in.Open() }

// Next implements Op.
func (f *Filter) Next() (storage.Row, bool) {
	for {
		r, ok := f.in.Next()
		if !ok {
			return nil, false
		}
		if f.pred(r) {
			return r, true
		}
	}
}

// Close implements Op.
func (f *Filter) Close() { f.in.Close() }

// RowBound passes the input's bound through: a filter only drops rows.
func (f *Filter) RowBound() (int, bool) { return rowBound(f.in) }

// SourceOrdinal passes the input's ordinal through.
func (f *Filter) SourceOrdinal() (int, bool) { return sourceOrdinal(f.in) }

// Project computes output expressions over input rows.
type Project struct {
	in    Op
	cols  []Col
	exprs []Scalar
	stats *storage.Stats
}

// NewProject returns a projection; cols and exprs must align.
func NewProject(in Op, cols []Col, exprs []Scalar, stats *storage.Stats) (*Project, error) {
	if len(cols) != len(exprs) {
		return nil, fmt.Errorf("exec: project has %d columns but %d expressions", len(cols), len(exprs))
	}
	return &Project{in: in, cols: cols, exprs: exprs, stats: stats}, nil
}

// Columns implements Op.
func (p *Project) Columns() []Col { return p.cols }

// Open implements Op.
func (p *Project) Open() error { return p.in.Open() }

// Next implements Op.
func (p *Project) Next() (storage.Row, bool) {
	r, ok := p.in.Next()
	if !ok {
		return nil, false
	}
	out := make(storage.Row, len(p.exprs))
	for i, e := range p.exprs {
		out[i] = e(r)
	}
	if p.stats != nil {
		p.stats.RowsEmitted++
	}
	return out, true
}

// Close implements Op.
func (p *Project) Close() { p.in.Close() }

// RowBound passes the input's bound through: one output row per input row.
func (p *Project) RowBound() (int, bool) { return rowBound(p.in) }

// SourceOrdinal passes the input's ordinal through.
func (p *Project) SourceOrdinal() (int, bool) { return sourceOrdinal(p.in) }
