package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Packed row codec: the one row format of base and delta snapshots. A
// row is its values back to back; a value is its Type as a one-byte tag
// followed by a zig-zag varint (TInt), the eight little-endian bytes of
// the IEEE-754 bit pattern (TFloat), or a uvarint length and that many
// bytes (TString). Floats travel by bit pattern, so NaN payloads and
// signed zeros round-trip exactly. A row carries no arity: reader and
// writer take it from the schema the rows belong to, and a run of rows
// needs no framing beyond a row count.

// minValueSize is the smallest encoding of one value (a tag and a
// one-byte payload); readers use it to cap a claimed row count by the
// bytes that hold the rows.
const minValueSize = 2

// AppendRow appends the packed encoding of r to dst and returns the
// extended slice. A value whose Type is not one of the three the engine
// defines encodes as its bare tag, which DecodeRow rejects.
func AppendRow(dst []byte, r Row) []byte {
	for _, v := range r {
		dst = append(dst, byte(v.T))
		switch v.T {
		case TInt:
			dst = binary.AppendVarint(dst, v.i)
		case TFloat:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.f))
		case TString:
			dst = binary.AppendUvarint(dst, uint64(len(v.s)))
			dst = append(dst, v.s...)
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
			n += uvarintLen(uint64(v.i<<1) ^ uint64(v.i>>63))
		case TFloat:
			n += 8
		case TString:
			n += uvarintLen(uint64(len(v.s))) + len(v.s)
		}
	}
	return n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// DecodeRow decodes one packed row of arity values from the front of
// src, appending them to dst (pass a reused row's [:0] to decode without
// allocating), and returns the row and the unread remainder of src. A
// string length is checked against the bytes that remain before
// anything is allocated from it, and decoded strings are copies, so the
// result never aliases src.
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
			if n <= 0 {
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
			if n <= 0 || l > uint64(len(src)-n) {
				return nil, nil, fmt.Errorf("storage: packed row: bad string length at value %d", i)
			}
			end := n + int(l)
			dst, src = append(dst, S(string(src[n:end]))), src[end:]
		default:
			return nil, nil, fmt.Errorf("storage: packed row: unknown value tag %d at value %d", tag, i)
		}
	}
	return dst, src, nil
}
