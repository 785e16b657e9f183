package core

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
)

// Vector is an n-component count vector. It represents arrivals (d_t),
// actions (p_t) or states (s_t): component i counts modifications on base
// table R_i. Components are never negative in a well-formed instance.
type Vector []int

// NewVector returns a zero vector with n components.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// IsZero reports whether every component of v is zero.
func (v Vector) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Sum returns the total count across all components.
func (v Vector) Sum() int {
	s := 0
	for _, x := range v {
		s += x
	}
	return s
}

// Add returns v + w as a new vector. It panics if the lengths differ.
func (v Vector) Add(w Vector) Vector {
	mustSameLen(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w as a new vector. It panics if the lengths differ.
func (v Vector) Sub(w Vector) Vector {
	mustSameLen(v, w)
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// AddInPlace adds w into v component-wise. It panics if the vectors have
// different lengths.
func (v Vector) AddInPlace(w Vector) {
	mustSameLen(v, w)
	for i := range v {
		v[i] += w[i]
	}
}

// SubInPlace subtracts w from v component-wise. It panics if the vectors
// have different lengths.
func (v Vector) SubInPlace(w Vector) {
	mustSameLen(v, w)
	for i := range v {
		v[i] -= w[i]
	}
}

// NonNegative reports whether every component of v is >= 0.
func (v Vector) NonNegative() bool {
	for _, x := range v {
		if x < 0 {
			return false
		}
	}
	return true
}

// DominatedBy reports whether v <= w component-wise. It panics if the
// vectors have different lengths.
func (v Vector) DominatedBy(w Vector) bool {
	mustSameLen(v, w)
	for i := range v {
		if v[i] > w[i] {
			return false
		}
	}
	return true
}

// Equal reports whether v and w have identical components.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// keyBufPool recycles the scratch byte buffers behind Key and String so
// rendering a vector costs exactly one allocation (the returned string).
var keyBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

// Key returns a compact string usable as a map key for deduplicating
// states, and as the debug rendering of a vector's components. The hot
// search path in internal/astar packs states into fixed-size comparable
// keys instead; Key remains the debug/String formatting path, and its
// order (KeyLess) the deterministic tie-break order for action selection.
func (v Vector) Key() string {
	return v.render(',', "")
}

// KeyLess reports whether v.Key() < w.Key() — the tie-break order of
// action selection — without allocating either string: both keys are
// rendered into stack buffers.
func (v Vector) KeyLess(w Vector) bool {
	var a, b [128]byte
	return bytes.Compare(v.appendJoined(a[:0], ','), w.appendJoined(b[:0], ',')) < 0
}

// appendJoined appends v's components to dst in decimal, separated by sep.
func (v Vector) appendJoined(dst []byte, sep byte) []byte {
	for i, x := range v {
		if i > 0 {
			dst = append(dst, sep)
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return dst
}

// String renders v as "[a b c]".
func (v Vector) String() string {
	return v.render(' ', "[]")
}

// render joins the components with sep; brackets, when non-empty, holds
// the surrounding open/close bytes.
func (v Vector) render(sep byte, brackets string) string {
	bp := keyBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	if brackets != "" {
		b = append(b, brackets[0])
	}
	b = v.appendJoined(b, sep)
	if brackets != "" {
		b = append(b, brackets[1])
	}
	s := string(b)
	*bp = b
	keyBufPool.Put(bp)
	return s
}

func mustSameLen(v, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("core: vector length mismatch %d vs %d", len(v), len(w)))
	}
}
