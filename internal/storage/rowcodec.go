package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Packed codec: the one byte format of everything durable — snapshots
// here, checkpoint segments and WAL payloads in internal/ivm, the
// manifest in internal/durable. Writers append to a []byte (AppendRow,
// AppendString, binary.AppendUvarint); readers decode through Reader. A
// row is its values back to back; a value is its Type as a one-byte tag
// followed by a zig-zag varint (TInt), the eight little-endian bytes of
// the IEEE-754 bit pattern (TFloat), or a uvarint length and that many
// bytes (TString). Floats travel by bit pattern, so NaN payloads and
// signed zeros round-trip exactly. A row carries no arity: reader and
// writer take it from the schema the rows belong to, and a run of rows
// needs no framing beyond a row count.

// MinValueSize is the smallest encoding of one value (a tag and a
// one-byte payload); readers use it to cap a claimed row count by the
// bytes that hold the rows.
const MinValueSize = 2

// AppendRow appends the packed encoding of r to dst and returns the
// extended slice. A value whose Type is not one of the three the engine
// defines encodes as its bare tag, which DecodeRow rejects.
func AppendRow(dst []byte, r Row) []byte {
	for _, v := range r {
		dst = append(dst, byte(v.T))
		switch v.T {
		case TInt:
			dst = binary.AppendVarint(dst, int64(v.n))
		case TFloat:
			dst = binary.LittleEndian.AppendUint64(dst, v.n)
		case TString:
			dst = AppendString(dst, entry(v.n).s)
		}
	}
	return dst
}

// rowSize returns the exact number of bytes AppendRow adds for r, so a
// writer can size its buffer once instead of growing it row by row.
func rowSize(r Row) int {
	n := 0
	for _, v := range r {
		n++
		switch v.T {
		case TInt:
			n += uvarintLen(zigzag(int64(v.n)))
		case TFloat:
			n += 8
		case TString:
			l := len(entry(v.n).s)
			n += uvarintLen(uint64(l)) + l
		}
	}
	return n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// zigzag is the unsigned form binary.AppendVarint writes x as.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// DecodeRow decodes one packed row of arity values from the front of
// src, appending them to dst (pass a reused row's [:0] to decode without
// allocating), and returns the row and the unread remainder of src. A
// string length is checked against the bytes that remain before
// anything is allocated from it, and a decoded string is interned (a
// new one as a copy), so the result never aliases src. Only the
// shortest form of a varint is accepted, here and in Reader: a row has
// exactly one encoding, so what decodes re-encodes to the bytes it came
// from.
func DecodeRow(dst Row, src []byte, arity int) (Row, []byte, error) {
	for i := 0; i < arity; i++ {
		if len(src) == 0 {
			return nil, nil, fmt.Errorf("storage: packed row: truncated at value %d", i)
		}
		tag := Type(src[0])
		src = src[1:]
		switch tag {
		case TInt:
			v, n := binary.Varint(src)
			if n <= 0 || n != uvarintLen(zigzag(v)) {
				return nil, nil, fmt.Errorf("storage: packed row: bad int at value %d", i)
			}
			dst, src = append(dst, I(v)), src[n:]
		case TFloat:
			if len(src) < 8 {
				return nil, nil, fmt.Errorf("storage: packed row: truncated float at value %d", i)
			}
			dst, src = append(dst, F(math.Float64frombits(binary.LittleEndian.Uint64(src)))), src[8:]
		case TString:
			l, n := binary.Uvarint(src)
			if n <= 0 || n != uvarintLen(l) || l > uint64(len(src)-n) {
				return nil, nil, fmt.Errorf("storage: packed row: bad string length at value %d", i)
			}
			end := n + int(l)
			dst, src = append(dst, Value{T: TString, n: internBytes(src[n:end])}), src[end:]
		default:
			return nil, nil, fmt.Errorf("storage: packed row: unknown value tag %d at value %d", tag, i)
		}
	}
	return dst, src, nil
}

// AppendString appends s as a uvarint length followed by its bytes —
// the form every name in a durable artifact takes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Reader decodes a packed artifact front to back. It is the one
// decoding primitive of storage, ivm and durable: every read is checked
// against the bytes that remain, and the first defect latches — later
// reads return zero values — so a decoder stays a flat sequence of
// reads with one Err check at the end instead of a check per field.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over buf. Decoded strings and rows are
// copies; only Rest aliases buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Fail latches a defect the caller found in decoded values (a bad
// version, an unknown kind); the first failure wins.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first defect, or nil.
func (r *Reader) Err() error { return r.err }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || len(r.buf) == 0 {
		r.Fail("truncated at a byte field")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if r.err != nil || n <= 0 || n != uvarintLen(v) {
		r.Fail("truncated or non-minimal uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.buf)
	if r.err != nil || n <= 0 || n != uvarintLen(zigzag(v)) {
		r.Fail("truncated or non-minimal varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Count reads a uvarint element count whose elements take at least
// minSize (> 0) bytes each and fails when the remaining bytes cannot
// hold that many — the check that keeps a damaged count from sizing an
// allocation or a loop.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	if r.err == nil && n > uint64(len(r.buf)/minSize) {
		r.Fail("count %d overruns %d remaining bytes", n, len(r.buf))
		return 0
	}
	return int(n)
}

// Str reads a length-prefixed string (see AppendString).
func (r *Reader) Str() string {
	n := r.Count(1)
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// Row reads one packed row of arity values, appending to dst (see
// DecodeRow).
func (r *Reader) Row(dst Row, arity int) Row {
	if r.err != nil {
		return dst
	}
	row, rest, err := DecodeRow(dst, r.buf, arity)
	if err != nil {
		r.err = err
		return dst
	}
	r.buf = rest
	return row
}

// Rest returns the unread bytes and consumes them: the trailing field
// of an artifact needs no length prefix.
func (r *Reader) Rest() []byte {
	rest := r.buf
	r.buf = nil
	return rest
}

// Done returns the first defect, or an error when bytes are left over:
// an artifact holds exactly what its layout says.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.Fail("%d bytes left over", len(r.buf))
	}
	return r.err
}
