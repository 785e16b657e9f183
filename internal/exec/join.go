package exec

import (
	"fmt"

	"abivm/internal/storage"
)

// HashJoin is an equi-join of a driving (left) input against a stored
// (right) input. Output rows are the left row concatenated with the
// right row, left-major: left rows in their input order, and inside one
// left row its matches in right-input order.
//
// Open reads the right input at most once and buckets its rows by join
// key; what it chooses, from the row bounds the inputs report, is which
// keys get a bucket. When the left input is known to be no larger than
// the right (a delta batch against a table scan), the left rows are
// read first and only their keys are registered, so the right rows
// stream past a batch-sized table and a row that matches nothing costs
// one allocation-free lookup. Otherwise every right key gets a bucket
// and the left rows stream past them. Either way a left row's matches
// are the right rows with its key in right-input order, so the emitted
// sequence is the same.
//
// Keyed on the left, an Open that finds no left row never opens the
// right input: a batch nothing of which survived the operators below
// the join pays no scan. An error the right input's Open would have
// returned is therefore not seen by that Open; it surfaces on the first
// one with a left row to join.
//
// Work units are charged by role, not by which side was hashed, and only
// for work done: one BatchSetups per scan of the right input, one
// HashBuildRows per right row read, one HashProbeRows per left row — the
// model of the paper's DBMS, which pays a scan of the stored side per
// non-empty batch.
//
// A join key is hashed, never encoded: slots files each bucket under
// the hash of its key columns (storage.KeyHash), the buckets whose keys
// share a hash are chained, and a bucket matches a row whose key columns
// hold the values of the row that registered it (Row.SameKey's rule).
//
// Keyed on the left over a bare table scan, the stored side is read as
// its table's kept key hashes (Table.ScanKeyHashes), not as rows: a
// hash goes through a 64-bit prefilter of the registered hashes and
// then the slot map, and the row is read only when the hash is on a
// chain, to confirm the key. The charges, the buckets and their order
// are the row-reading loop's.
type HashJoin struct {
	left, right         Op
	leftKeys, rightKeys []int
	cols                []Col
	stats               *storage.Stats

	slots    map[uint64]int // join key hash -> position in buckets of the first bucket on its chain
	buckets  []joinBucket   // in registration order
	hashBits uint64         // bit hashBit(h) set for every hash in slots
	leftRows []storage.Row  // the left input, when it was read up front
	leftOrds []int          // source ordinal of each leftRows entry, when the left input reports one
	onLeft   bool           // slots holds the left input's keys only
	leftI    int

	curLeft storage.Row
	matches []storage.Row
	matchI  int
}

// joinBucket is the right rows under one join key, in right-input order.
type joinBucket struct {
	owner storage.Row   // the row that registered the key
	rows  []storage.Row // the right rows with the key
	next  int           // the next bucket whose key has the same hash, or -1
}

// NewHashJoin joins left and right on equality of the key columns.
func NewHashJoin(left, right Op, leftKeys, rightKeys []int, stats *storage.Stats) (*HashJoin, error) {
	if len(leftKeys) != len(rightKeys) || len(leftKeys) == 0 {
		return nil, fmt.Errorf("exec: hash join needs matching non-empty key lists, got %d and %d", len(leftKeys), len(rightKeys))
	}
	lc, rc := left.Columns(), right.Columns()
	for _, k := range leftKeys {
		if k < 0 || k >= len(lc) {
			return nil, fmt.Errorf("exec: hash join left key %d out of range", k)
		}
	}
	for _, k := range rightKeys {
		if k < 0 || k >= len(rc) {
			return nil, fmt.Errorf("exec: hash join right key %d out of range", k)
		}
	}
	cols := make([]Col, 0, len(lc)+len(rc))
	cols = append(cols, lc...)
	cols = append(cols, rc...)
	return &HashJoin{left: left, right: right, leftKeys: leftKeys, rightKeys: rightKeys, cols: cols, stats: stats}, nil
}

// Columns implements Op.
func (j *HashJoin) Columns() []Col { return j.cols }

// Open implements Op: it reads the right input into per-key buckets
// (and, when the left input is the smaller one, the left input first,
// stopping there when it is empty).
func (j *HashJoin) Open() (err error) {
	j.release()
	defer func() {
		if err != nil {
			j.release()
		}
	}()
	ln, lok := rowBound(j.left)
	rn, rok := rowBound(j.right)
	j.onLeft = lok && (!rok || ln <= rn)
	j.slots = make(map[uint64]int)
	if j.onLeft {
		if err := j.left.Open(); err != nil {
			return err
		}
		for {
			l, ok := j.left.Next()
			if !ok {
				break
			}
			j.leftRows = append(j.leftRows, l)
			if i, ok := sourceOrdinal(j.left); ok {
				j.leftOrds = append(j.leftOrds, i)
			}
			j.slot(l, j.leftKeys, true)
		}
		j.left.Close()
		if len(j.leftRows) == 0 {
			return nil
		}
	}
	if scan, ok := j.right.(*SeqScan); ok && j.onLeft {
		j.scanHashes(scan.table)
		return nil
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	defer j.right.Close()
	if j.stats != nil {
		j.stats.BatchSetups++
	}
	for {
		r, ok := j.right.Next()
		if !ok {
			break
		}
		if j.stats != nil {
			j.stats.HashBuildRows++
		}
		if b, ok := j.slot(r, j.rightKeys, !j.onLeft); ok {
			j.buckets[b].rows = append(j.buckets[b].rows, r)
		}
	}
	if j.onLeft {
		return nil
	}
	return j.left.Open()
}

// scanHashes is Open's read of a table scan when the left input's keys
// are registered (see HashJoin). It charges what the row-reading loop
// does: one BatchSetups, and per live row one HashBuildRows here and one
// RowsScanned on the table.
func (j *HashJoin) scanHashes(t *storage.Table) {
	t.ScanKeyHashes(j.rightKeys, func(slot int, h uint64) {
		if j.hashBits&hashBit(h) == 0 {
			return
		}
		r := t.Slot(slot)
		if b, ok := j.find(h, r, j.rightKeys); ok {
			j.buckets[b].rows = append(j.buckets[b].rows, r)
		}
	})
	if j.stats != nil {
		j.stats.BatchSetups++
		j.stats.HashBuildRows += uint64(t.Len())
	}
}

// hashBit is the prefilter bit of a key hash: one of 64, picked by the
// hash's top bits.
func hashBit(h uint64) uint64 { return 1 << (h >> 58) }

// slot returns the bucket position of the row's join key (at keys),
// registering the key with an empty bucket when it is new and add is
// set. Only a registration allocates, and only when the map or the
// bucket list grows.
func (j *HashJoin) slot(r storage.Row, keys []int, add bool) (int, bool) {
	h := storage.KeyHash(r, keys)
	if b, ok := j.find(h, r, keys); ok || !add {
		return b, ok
	}
	head, ok := j.slots[h]
	if !ok {
		head = -1
	}
	b := len(j.buckets)
	j.slots[h] = b
	j.hashBits |= hashBit(h)
	j.buckets = append(j.buckets, joinBucket{owner: r, next: head})
	return b, true
}

// find walks the chain of hash h for the bucket of the row's join key
// (at keys); a bucket is keyed by its owner's columns at the keys of the
// side that registers.
func (j *HashJoin) find(h uint64, r storage.Row, keys []int) (int, bool) {
	ownKeys := j.rightKeys
	if j.onLeft {
		ownKeys = j.leftKeys
	}
	head, ok := j.slots[h]
	if !ok {
		return 0, false
	}
	for b := head; b >= 0; b = j.buckets[b].next {
		if storage.SameCols(j.buckets[b].owner, ownKeys, r, keys) {
			return b, true
		}
	}
	return 0, false
}

// Next implements Op.
func (j *HashJoin) Next() (storage.Row, bool) {
	for {
		if j.matchI < len(j.matches) {
			right := j.matches[j.matchI]
			j.matchI++
			out := make(storage.Row, 0, len(j.curLeft)+len(right))
			out = append(out, j.curLeft...)
			out = append(out, right...)
			if j.stats != nil {
				j.stats.RowsEmitted++
			}
			return out, true
		}
		var l storage.Row
		if j.onLeft {
			if j.leftI >= len(j.leftRows) {
				return nil, false
			}
			l = j.leftRows[j.leftI]
			j.leftI++
		} else {
			var ok bool
			if l, ok = j.left.Next(); !ok {
				return nil, false
			}
		}
		j.curLeft = l
		if j.stats != nil {
			j.stats.HashProbeRows++
		}
		j.matches, j.matchI = nil, 0
		if b, ok := j.slot(l, j.leftKeys, false); ok {
			j.matches = j.buckets[b].rows
		}
	}
}

// SourceOrdinal reports the ordinal of the current left row: kept beside
// the row when the left input was read up front, the left input's own
// otherwise.
func (j *HashJoin) SourceOrdinal() (int, bool) {
	if !j.onLeft {
		return sourceOrdinal(j.left)
	}
	if j.leftI == 0 || len(j.leftOrds) != len(j.leftRows) {
		return 0, false
	}
	return j.leftOrds[j.leftI-1], true
}

// Close implements Op.
func (j *HashJoin) Close() {
	j.left.Close()
	j.release()
}

// release drops every reference to input rows, so a join kept for
// reuse (a prepared plan) pins nothing between runs. The ordinals are
// plain ints and keep their buffer.
func (j *HashJoin) release() {
	j.slots, j.buckets, j.leftRows, j.hashBits = nil, nil, nil, 0
	j.leftOrds = j.leftOrds[:0]
	j.leftI = 0
	j.curLeft, j.matches, j.matchI = nil, nil, 0
}

// IndexLoopJoin is an index-nested-loop equi-join: for each left row it
// probes an index on the stored right table. This is the engine's cheap
// path — the source of the cost asymmetry the paper exploits: a delta
// batch joined through an index costs O(batch), while the same join
// without an index costs O(batch + |table|) via HashJoin's build.
type IndexLoopJoin struct {
	left     Op
	right    *storage.Table
	index    *storage.Index
	leftKeys []int
	cols     []Col

	vals    []storage.Value // reused probe key
	curLeft storage.Row
	matches []storage.Row // reused probe result
	matchI  int
}

// NewIndexLoopJoin joins left rows against table rows whose index key
// equals the left key columns. index must be an index of table covering
// exactly the joined columns.
func NewIndexLoopJoin(left Op, table *storage.Table, alias string, index *storage.Index, leftKeys []int) (*IndexLoopJoin, error) {
	if index == nil {
		return nil, fmt.Errorf("exec: index loop join needs an index")
	}
	if len(leftKeys) != len(index.Cols) || len(leftKeys) == 0 {
		return nil, fmt.Errorf("exec: index loop join key arity %d does not match index arity %d", len(leftKeys), len(index.Cols))
	}
	lc := left.Columns()
	for _, k := range leftKeys {
		if k < 0 || k >= len(lc) {
			return nil, fmt.Errorf("exec: index loop join left key %d out of range", k)
		}
	}
	schema := table.Schema()
	cols := make([]Col, 0, len(lc)+len(schema.Columns))
	cols = append(cols, lc...)
	for _, c := range schema.Columns {
		cols = append(cols, Col{Table: alias, Name: c.Name, Type: c.Type})
	}
	return &IndexLoopJoin{left: left, right: table, index: index, leftKeys: leftKeys, cols: cols}, nil
}

// Columns implements Op.
func (j *IndexLoopJoin) Columns() []Col { return j.cols }

// Open implements Op.
func (j *IndexLoopJoin) Open() error {
	j.curLeft = nil
	j.matches = j.matches[:0]
	j.matchI = 0
	return j.left.Open()
}

// Next implements Op.
func (j *IndexLoopJoin) Next() (storage.Row, bool) {
	for {
		if j.matchI < len(j.matches) {
			right := j.matches[j.matchI]
			j.matchI++
			out := make(storage.Row, 0, len(j.curLeft)+len(right))
			out = append(out, j.curLeft...)
			out = append(out, right...)
			if st := j.right.Stats(); st != nil {
				st.RowsEmitted++
			}
			return out, true
		}
		l, ok := j.left.Next()
		if !ok {
			return nil, false
		}
		j.curLeft = l
		j.vals = j.vals[:0]
		for _, k := range j.leftKeys {
			j.vals = append(j.vals, l[k])
		}
		j.matches = j.right.LookupVia(j.matches[:0], j.index, j.vals...)
		j.matchI = 0
	}
}

// SourceOrdinal passes the left input's ordinal through: it is curLeft's
// whenever a row has just been returned.
func (j *IndexLoopJoin) SourceOrdinal() (int, bool) { return sourceOrdinal(j.left) }

// Close implements Op. The probe buffer is kept for the next run but
// emptied to its capacity, so a prepared plan pins no table row between
// runs.
func (j *IndexLoopJoin) Close() {
	j.left.Close()
	j.curLeft = nil
	clear(j.matches[:cap(j.matches)])
	j.matches = j.matches[:0]
}
