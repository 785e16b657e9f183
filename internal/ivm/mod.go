// Package ivm implements batch incremental view maintenance over the
// relational engine: materialized aggregate and select-project-join views
// whose content can be brought up to date by processing batches of base
// table modifications, one table at a time — the asymmetric processing
// model of the paper.
//
// # State-bug avoidance
//
// Modifications are applied to the live base tables immediately, but the
// view must be maintained against the state it currently reflects, not
// the (newer) live state — using the post-update base state in a
// maintenance join is the classic "state bug" (Colby et al., SIGMOD 96).
// The Maintainer therefore keeps a view-consistent replica of every base
// table. A delta batch from table i is joined against the replicas (the
// exact state the view reflects) and only then applied to replica i. The
// live tables are never consulted during maintenance.
//
// # Aggregates under deletion
//
// MIN and MAX are not incrementally maintainable from the aggregate value
// alone: deleting the current minimum forces a recompute. The Maintainer
// keeps a counted multiset of contributing values per group, so deletions
// never touch the base data — the auxiliary-structure remedy the paper
// alludes to.
package ivm

import (
	"encoding/binary"
	"fmt"

	"abivm/internal/storage"
)

// ModKind enumerates modification kinds.
type ModKind uint8

// Modification kinds.
const (
	ModInsert ModKind = iota
	ModDelete
	ModUpdate
)

// String names the kind.
func (k ModKind) String() string {
	switch k {
	case ModInsert:
		return "INSERT"
	case ModDelete:
		return "DELETE"
	case ModUpdate:
		return "UPDATE"
	}
	return fmt.Sprintf("ModKind(%d)", uint8(k))
}

// Mod is one base-table modification addressed to a FROM alias of the
// view.
type Mod struct {
	Kind  ModKind
	Alias string
	// Row is the full new row for inserts and updates.
	Row storage.Row
	// Key holds the primary-key values for deletes and updates.
	Key []storage.Value
}

// Insert builds an insert modification.
func Insert(alias string, row storage.Row) Mod {
	return Mod{Kind: ModInsert, Alias: alias, Row: row}
}

// Delete builds a delete modification.
func Delete(alias string, key ...storage.Value) Mod {
	return Mod{Kind: ModDelete, Alias: alias, Key: key}
}

// Update builds an update modification replacing the row at key with row.
func Update(alias string, key []storage.Value, row storage.Row) Mod {
	return Mod{Kind: ModUpdate, Alias: alias, Key: key, Row: row}
}

// ApplyLive applies one modification to a live base table — the one
// live-table writer, shared by the broker, the measurement probe and the
// tests. On a table some view watches it first enforces the rule view
// maintenance depends on — an update keeps its row's primary key — so
// a watched table behaves identically whoever writes it; a table nobody
// watches is simply updated.
func ApplyLive(db *storage.DB, table string, mod Mod, watched bool) error {
	tbl, err := db.Table(table)
	if err != nil {
		return err
	}
	switch mod.Kind {
	case ModInsert:
		return tbl.Insert(mod.Row)
	case ModDelete:
		_, err := tbl.Delete(mod.Key...)
		return err
	case ModUpdate:
		if watched && !mod.Row.KeyIs(tbl.Schema().Key, mod.Key) {
			return fmt.Errorf("ivm: update must not change the primary key (table %q)", table)
		}
		_, err := tbl.Update(mod.Key, mod.Row)
		return err
	}
	return fmt.Errorf("ivm: unknown modification kind %d", mod.Kind)
}

// AppendMod appends the packed encoding of mod to dst — the one form a
// modification takes in checkpoint segments and WAL frames alike:
//
//	mod := kind:byte alias row:count value* key:count value*
//
// with count a uvarint, alias a length-prefixed string and value as in
// storage.AppendRow. A value of no known type is an error here, at write
// time, instead of a segment that fails to decode at recovery; dst is
// returned unextended then.
func AppendMod(dst []byte, mod Mod) ([]byte, error) {
	for _, vals := range [2][]storage.Value{mod.Row, mod.Key} {
		for _, v := range vals {
			if v.T > storage.TString {
				return dst, fmt.Errorf("ivm: encoding %s on %q: value of unknown type %d", mod.Kind, mod.Alias, uint8(v.T))
			}
		}
	}
	dst = storage.AppendString(append(dst, byte(mod.Kind)), mod.Alias)
	dst = storage.AppendRow(binary.AppendUvarint(dst, uint64(len(mod.Row))), mod.Row)
	return storage.AppendRow(binary.AppendUvarint(dst, uint64(len(mod.Key))), mod.Key), nil
}

// ReadMod is AppendMod's inverse; a defect latches in r. An absent row
// or key decodes as nil, as the constructors above leave them.
func ReadMod(r *storage.Reader) Mod {
	mod := Mod{Kind: ModKind(r.Byte()), Alias: r.Str()}
	if mod.Kind > ModUpdate {
		r.Fail("unknown modification kind %d", uint8(mod.Kind))
	}
	if n := r.Count(storage.MinValueSize); n > 0 {
		mod.Row = r.Row(make(storage.Row, 0, n), n)
	}
	if n := r.Count(storage.MinValueSize); n > 0 {
		mod.Key = r.Row(make(storage.Row, 0, n), n)
	}
	return mod
}
