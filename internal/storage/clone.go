package storage

// CloneTable copies src into dst: same schema, every live row (in scan
// order, so the clone's slot order is deterministic given the source's
// operation history), and every secondary-index definition. It is the
// snapshot primitive behind view-consistent replicas and the compiler's
// calibration sandboxes; src is only read, never mutated — not even its
// Stats, so recoveries on different goroutines may clone one live table
// at once. Insert makes the clone's own copy of each row.
func CloneTable(dst *DB, src *Table) (*Table, error) {
	out, err := dst.CreateTable(src.Schema())
	if err != nil {
		return nil, err
	}
	for _, r := range src.rows {
		if r == nil {
			continue
		}
		if err := out.Insert(r); err != nil {
			return nil, err
		}
	}
	for _, ix := range src.Indexes() {
		cols := make([]string, len(ix.Cols))
		for i, c := range ix.Cols {
			cols[i] = src.Schema().Columns[c].Name
		}
		if err := out.CreateIndex(ix.Name, ix.Kind, cols...); err != nil {
			return nil, err
		}
	}
	return out, nil
}
