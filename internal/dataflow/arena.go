package dataflow

import "abivm/internal/storage"

// Chunk sizes of a graph's delta arena, in elements: a value chunk
// (16 KiB) holds some two hundred five-column join products, a word
// chunk (4 KiB) the coordinates of some hundreds of deltas, or of some
// dozens of summary products.
const (
	arenaValues = 1024
	arenaWords  = 512
)

// deltaArena is where a graph's deltas get the memory they carry that
// nothing else owns: the rows a join builds and every coordinate, the
// summaries summary products carry included. It is two bump slabs, one
// of values and one of coordinate words, each cut
// into windows from the front of its current chunk and refilled with a
// fresh chunk when a request no longer fits. It references only what is
// left of its current chunks; a full chunk is held by the deltas that
// point into it — in delta logs and arrangement tails, until a trim
// drops them — and becomes garbage with the last. Every window is
// capped at its length, so nothing appended to one reaches the next.
type deltaArena struct {
	vals  []storage.Value // the unused rest of the current value chunk
	words []uint64        // the unused rest of the current word chunk
}

// spare returns the first n elements left in a slab, capped at n,
// starting a new chunk when fewer are left. A new chunk has room for at
// least four requests of this size, so rows wider than a chunk amortise
// too. The caller consumes what it keeps by reslicing the slab.
func spare[T any](slab *[]T, n, chunk int) []T {
	if len(*slab) < n {
		*slab = make([]T, max(chunk, 4*n))
	}
	return (*slab)[:n:n]
}

// row returns room for one n-value row. It stays the arena's until
// keepRow(n) consumes it, so a row built and then rejected leaves its
// room to the next request. No other row may be taken between a row
// and its keepRow.
func (a *deltaArena) row(n int) storage.Row { return spare(&a.vals, n, arenaValues) }

// keepRow consumes the n values the last row call returned.
func (a *deltaArena) keepRow(n int) { a.vals = a.vals[n:] }

// coord returns a fresh n-entry coordinate, consumed.
func (a *deltaArena) coord(n int) Coord {
	c := spare(&a.words, n, arenaWords)
	a.words = a.words[n:]
	return c
}

// carrying returns a fresh coordinate of n entries, consumed, that goes
// on with the summary of the columns at cols of s (Coord.summary): words
// copied out of s, which a later trim changes, never the copy. The caller
// fills the first n.
func (a *deltaArena) carrying(n int, s *summary, cols []int) Coord {
	size := n + s.words(cols)
	c := spare(&a.words, size, arenaWords)
	a.words = a.words[size:]
	s.appendWords(c[n:n], cols)
	return c
}
