// Package storage implements the in-memory relational engine underneath
// the IVM substrate: typed values, schemas, heap tables with primary-key
// enforcement, hash secondary indexes, and work-unit accounting. The
// engine is single-writer: callers serialize access, as the maintenance
// loop of the paper does.
//
// Work units are the engine's deterministic cost currency. Every row
// examined, index probed, or tuple materialized bumps a counter in Stats;
// the costmodel package converts counters into the pseudo-millisecond
// cost functions that drive the maintenance algorithms. This mirrors the
// paper's methodology (cost functions "measured by experiments") while
// keeping every experiment machine-independent and reproducible.
package storage

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type enumerates the value types the engine supports.
type Type uint8

// Supported value types.
const (
	TInt Type = iota
	TFloat
	TString
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TInt:
		return "INTEGER"
	case TFloat:
		return "FLOAT"
	case TString:
		return "TEXT"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Value is a typed scalar, 32 bytes wide. The zero Value is the integer
// 0. A number lives in n — an integer as its two's-complement bits, a
// float as its IEEE-754 bit pattern — and a string in s; the constructors
// leave the slot a type does not use zero, so two values share a key
// encoding exactly when they are == as structs.
type Value struct {
	T Type
	n uint64
	s string
}

// I returns an integer value.
func I(v int64) Value { return Value{T: TInt, n: uint64(v)} }

// F returns a float value.
func F(v float64) Value { return Value{T: TFloat, n: math.Float64bits(v)} }

// S returns a string value.
func S(v string) Value { return Value{T: TString, s: v} }

// Int returns the integer payload; it panics on other types.
func (v Value) Int() int64 {
	if v.T != TInt {
		panic(fmt.Sprintf("storage: Int() on %s value", v.T))
	}
	return int64(v.n)
}

// Float returns the float payload, widening integers; it panics on
// strings.
func (v Value) Float() float64 {
	switch v.T {
	case TFloat:
		return math.Float64frombits(v.n)
	case TInt:
		return float64(int64(v.n))
	}
	panic(fmt.Sprintf("storage: Float() on %s value", v.T))
}

// Str returns the string payload; it panics on other types.
func (v Value) Str() string {
	if v.T != TString {
		panic(fmt.Sprintf("storage: Str() on %s value", v.T))
	}
	return v.s
}

// numeric reports whether the value is an int or float.
func (v Value) numeric() bool { return v.T == TInt || v.T == TFloat }

// Compare orders two values: numerics compare by numeric value (ints and
// floats are mutually comparable), strings lexicographically. Comparing a
// string with a numeric panics: the planner type-checks expressions before
// execution, so a cross-type comparison is an engine bug.
func Compare(a, b Value) int {
	if a.numeric() && b.numeric() {
		if a.T == TInt && b.T == TInt {
			ai, bi := int64(a.n), int64(b.n)
			switch {
			case ai < bi:
				return -1
			case ai > bi:
				return 1
			}
			return 0
		}
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	}
	if a.T == TString && b.T == TString {
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("storage: incomparable values %s and %s", a.T, b.T))
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// String renders the value for display.
func (v Value) String() string {
	switch v.T {
	case TInt:
		return strconv.FormatInt(int64(v.n), 10)
	case TFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case TString:
		return v.s
	}
	return "?"
}

// appendValue appends an order-preserving, injective encoding of v to
// dst. A leading type tag keeps encodings of different types disjoint.
func appendValue(dst []byte, v Value) []byte {
	switch v.T {
	case TInt:
		dst = append(dst, 'i')
		u := v.n ^ (1 << 63) // flip sign bit: preserves order
		for shift := 56; shift >= 0; shift -= 8 {
			dst = append(dst, byte(u>>uint(shift)))
		}
	case TFloat:
		dst = append(dst, 'f')
		bits := v.n
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		for shift := 56; shift >= 0; shift -= 8 {
			dst = append(dst, byte(bits>>uint(shift)))
		}
	case TString:
		// A NUL inside the string is escaped as 00 FF and the string ends
		// with 00 01, which sorts below every escape: without the escape
		// ("a\x00sb") and ("a", "b") would share an encoding, and with this
		// terminator a string still sorts before every extension of itself.
		dst = append(dst, 's')
		s := v.s
		for i := strings.IndexByte(s, 0); i >= 0; i = strings.IndexByte(s, 0) {
			dst = append(append(dst, s[:i]...), 0x00, 0xFF)
			s = s[i+1:]
		}
		dst = append(append(dst, s...), 0x00, 0x01)
	}
	return dst
}

// AppendKey appends the composite key encoding of vals to dst and
// returns the extended buffer: string(AppendKey(nil, vals...)) is
// EncodeKey(vals...). It is the form every keyed probe uses — the rule
// throughout the engine is that a key stays bytes until it is stored:
// encode into a stack buffer (var a [64]byte; AppendKey(a[:0], ...)),
// look up as m[string(buf)], which builds no string, and convert only
// when a key that is not in the map yet has to enter it.
func AppendKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		dst = appendValue(dst, v)
	}
	return dst
}

// AppendKeyCols appends the key encoding of r's values at cols to dst:
// AppendKey(dst, r.Project(cols)...) without the projection. It is how a
// row's primary or index key is encoded for a probe.
func AppendKeyCols(dst []byte, r Row, cols []int) []byte {
	for _, c := range cols {
		dst = appendValue(dst, r[c])
	}
	return dst
}

// EncodeKey builds a composite key string from values. The encoding is
// injective over value lists — two lists share an encoding exactly when
// Row.SameKey holds, strings containing NUL included — so it is safe as
// a map key; for lists whose columns agree in type it is also
// order-preserving. Keys of up to 64 bytes are built in a stack array,
// so the returned string is the only allocation. It is for a caller
// that keeps the string (a new map entry, a sort key, a test); one that
// only looks a key up uses AppendKey and pays for no string at all.
func EncodeKey(vals ...Value) string {
	var a [64]byte
	return string(AppendKey(a[:0], vals...))
}

// Row is one tuple. Rows are positional; the schema maps names to
// positions.
type Row []Value

// Clone returns an independent copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// SameKey reports whether r and o encode to the same EncodeKey string —
// column-wise identical type and payload, floats by bit pattern —
// without building either encoding.
func (r Row) SameKey(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i, a := range r {
		if a != o[i] {
			return false
		}
	}
	return true
}

// KeyIs reports whether r's values at cols are exactly keyVals — what
// comparing EncodeKey(r.Project(cols)...) with EncodeKey(keyVals...)
// would say, SameKey's rule, without building a projection or an
// encoding. A row too short to have one of the columns does not match.
// The brokers and engines use it to refuse an update that would change
// a primary key.
func (r Row) KeyIs(cols []int, keyVals []Value) bool {
	if len(keyVals) != len(cols) {
		return false
	}
	for i, c := range cols {
		if c >= len(r) || r[c] != keyVals[i] {
			return false
		}
	}
	return true
}

// Project returns the sub-row at the given column positions.
func (r Row) Project(cols []int) Row {
	out := make(Row, len(cols))
	for i, c := range cols {
		out[i] = r[c]
	}
	return out
}

// String renders the row for display.
func (r Row) String() string {
	s := "("
	for i, v := range r {
		if i > 0 {
			s += ", "
		}
		s += v.String()
	}
	return s + ")"
}
