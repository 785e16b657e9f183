package storage

import (
	"sync"
	"sync/atomic"
)

// The interner holds every string a Value has carried, once per process,
// under a dense id: a TEXT value is its id, so a row holds no pointer
// and the collector never scans stored rows. Ids are global because
// values move between databases — replica clones, the dataflow graph,
// query results, SQL literals, decoded rows — and are compared with ==
// everywhere. The empty string is id 0, so the zero payload reads as "".
//
// Interned text is never freed: the interner grows by every distinct
// string the process has seen (InternStats reports how far), which for
// this engine's workloads is their names and labels, not their traffic.
var interner = newStringTable()

type stringTable struct {
	mu    sync.Mutex
	ids   map[string]uint64 // guarded by mu
	bytes int               // the strings' total length; guarded by mu
	// table is indexed by id. Readers load it without a lock: an entry
	// is written before its id leaves S, and the slice is replaced, by
	// a copy twice as long, only when it is full, so every id a reader
	// holds is inside the table it loads.
	table atomic.Pointer[[]internEntry]
}

// newStringTable returns an interner holding "" as id 0. It is the
// initialiser of interner, so package variables built with S come after.
func newStringTable() *stringTable {
	t := make([]internEntry, 1024)
	t[0] = internEntry{"", hashString("")}
	st := &stringTable{ids: map[string]uint64{"": 0}}
	st.table.Store(&t)
	return st
}

// internEntry is one interned string and its hashString, which
// hashValue folds in where it would otherwise hash the bytes.
type internEntry struct {
	s string
	h uint64
}

// intern returns s's id, adding s if it is new. It is safe for
// concurrent use.
func intern(s string) uint64 {
	interner.mu.Lock()
	id, ok := interner.ids[s]
	if !ok {
		id = add(s)
	}
	interner.mu.Unlock()
	return id
}

// internBytes is intern(string(b)) that builds the string only when b
// is new.
func internBytes(b []byte) uint64 {
	interner.mu.Lock()
	id, ok := interner.ids[string(b)]
	if !ok {
		id = add(string(b))
	}
	interner.mu.Unlock()
	return id
}

// add gives s the next id; interner.mu must be held.
func add(s string) uint64 {
	t := *interner.table.Load()
	id := len(interner.ids)
	if id == len(t) {
		grown := make([]internEntry, 2*len(t))
		copy(grown, t)
		t = grown
		interner.table.Store(&t)
	}
	t[id] = internEntry{s, hashString(s)}
	interner.ids[s] = uint64(id)
	interner.bytes += len(s)
	return uint64(id)
}

// entry returns the interned string with the given id.
func entry(id uint64) *internEntry { return &(*interner.table.Load())[id] }

// InternStats reports how many distinct strings the process has interned,
// the empty string included, and their total length in bytes. Neither
// ever falls.
func InternStats() (count, bytes int) {
	interner.mu.Lock()
	defer interner.mu.Unlock()
	return len(interner.ids), interner.bytes
}
