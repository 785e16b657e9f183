package storage

import "fmt"

// Column describes one attribute of a table.
type Column struct {
	Name string
	Type Type
}

// Schema describes a table: its name, columns, and primary key.
type Schema struct {
	Name    string
	Columns []Column
	// Key lists the positions of the primary-key columns, in key order.
	Key []int

	byName map[string]int
}

// NewSchema builds and validates a schema. keyCols name the primary-key
// columns.
func NewSchema(name string, cols []Column, keyCols ...string) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("storage: empty table name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("storage: table %s has no columns", name)
	}
	s := &Schema{Name: name, Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("storage: table %s column %d unnamed", name, i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("storage: table %s has duplicate column %q", name, c.Name)
		}
		s.byName[c.Name] = i
	}
	if len(keyCols) == 0 {
		return nil, fmt.Errorf("storage: table %s has no primary key", name)
	}
	for _, kc := range keyCols {
		idx, ok := s.byName[kc]
		if !ok {
			return nil, fmt.Errorf("storage: table %s key column %q not found", name, kc)
		}
		s.Key = append(s.Key, idx)
	}
	return s, nil
}

// ColIndex returns the position of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// CheckRow verifies arity and column types of a row against the schema.
func (s *Schema) CheckRow(r Row) error {
	if len(r) != len(s.Columns) {
		return fmt.Errorf("storage: table %s: row arity %d, want %d", s.Name, len(r), len(s.Columns))
	}
	for i, v := range r {
		want := s.Columns[i].Type
		if v.T == want {
			continue
		}
		// Ints are accepted where floats are declared (implicit widening
		// matches SQL numeric literals).
		if want == TFloat && v.T == TInt {
			continue
		}
		return fmt.Errorf("storage: table %s column %s: value type %s, want %s",
			s.Name, s.Columns[i].Name, v.T, want)
	}
	return nil
}
