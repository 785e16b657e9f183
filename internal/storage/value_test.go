package storage

import (
	"encoding/binary"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"abivm/internal/testenv"
)

func TestValueAccessors(t *testing.T) {
	if I(42).Int() != 42 {
		t.Error("Int round trip")
	}
	if F(2.5).Float() != 2.5 {
		t.Error("Float round trip")
	}
	if S("x").Str() != "x" {
		t.Error("Str round trip")
	}
	// Int widens to float.
	if I(3).Float() != 3.0 {
		t.Error("Int widening")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	cases := []func(){
		func() { S("x").Int() },
		func() { S("x").Float() },
		func() { I(1).Str() },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{I(1), I(2), -1},
		{I(2), I(2), 0},
		{I(3), I(2), 1},
		{F(1.5), F(2.5), -1},
		{I(2), F(2.0), 0},
		{F(1.9), I(2), -1},
		{S("a"), S("b"), -1},
		{S("b"), S("b"), 0},
	}
	for _, c := range cases {
		got := Compare(c.a, c.b)
		norm := 0
		if got < 0 {
			norm = -1
		} else if got > 0 {
			norm = 1
		}
		if norm != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareIncomparablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("string vs int comparison did not panic")
		}
	}()
	Compare(S("a"), I(1))
}

func TestValueString(t *testing.T) {
	if I(-5).String() != "-5" {
		t.Error("int formatting")
	}
	if F(1.25).String() != "1.25" {
		t.Error("float formatting")
	}
	if S("hi").String() != "hi" {
		t.Error("string formatting")
	}
}

func TestEncodeKeyInjective(t *testing.T) {
	f := func(a, b int64) bool {
		if a == b {
			return true
		}
		return EncodeKey(I(a)) != EncodeKey(I(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Mixed-type composite keys never collide across types.
	if EncodeKey(I(1)) == EncodeKey(F(1)) {
		t.Error("int/float encodings collide")
	}
	if EncodeKey(S("1")) == EncodeKey(I(1)) {
		t.Error("string/int encodings collide")
	}
	// Composite keys are not ambiguous under concatenation, whatever bytes
	// the strings hold.
	if EncodeKey(S("ab"), S("c")) == EncodeKey(S("a"), S("bc")) {
		t.Error("composite string keys ambiguous")
	}
	if EncodeKey(S("a\x00sb")) == EncodeKey(S("a"), S("b")) {
		t.Error("a NUL inside a string reads as the end of it")
	}
	if EncodeKey(S("a\x00\x01sb")) == EncodeKey(S("a"), S("b")) {
		t.Error("a terminator inside a string reads as the end of it")
	}
}

// TestEncodeKeyOrderPreservingStrings: byte order of the encoding is
// string order, through NULs, escapes and a following column.
func TestEncodeKeyOrderPreservingStrings(t *testing.T) {
	ordered := []string{"", "\x00", "\x00\x00", "\x00\x01", "\x00\xff", "\x01", "a", "a\x00", "a\x00b", "a\x01", "ab", "b", "\xff"}
	for i, a := range ordered {
		for j, b := range ordered {
			got := strings.Compare(EncodeKey(S(a), I(int64(j))), EncodeKey(S(b), I(int64(i))))
			want := strings.Compare(a, b)
			if want == 0 {
				continue
			}
			if got != want {
				t.Errorf("EncodeKey(%q, …) vs EncodeKey(%q, …): order %d, strings order %d", a, b, got, want)
			}
		}
	}
}

// TestRowSameKeyMatchesEncodeKey: SameKey is EncodeKey equality without
// the encoding, including where it differs from Equal (1 vs 1.0, the
// two float zeros) and on rows of different width.
func TestRowSameKeyMatchesEncodeKey(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rows := []Row{
		{}, {I(1)}, {F(1)}, {I(1), I(2)}, {I(2), I(1)}, {S("1")}, {S("")}, {S("a\x00sb")}, {S("a"), S("b")},
		{F(0)}, {F(negZero)}, {F(math.NaN())}, {I(1), S("a"), F(2.5)}, {I(1), S("a"), F(2.5)}, {I(1), S("b"), F(2.5)},
	}
	for _, a := range rows {
		for _, b := range rows {
			if got, want := a.SameKey(b), EncodeKey(a...) == EncodeKey(b...); got != want {
				t.Errorf("%v.SameKey(%v) = %v, EncodeKey equality %v", a, b, got, want)
			}
		}
	}
}

func TestEncodeKeyOrderPreservingInts(t *testing.T) {
	vals := []int64{-1 << 40, -77, -1, 0, 1, 99, 1 << 40}
	keys := make([]string, len(vals))
	for i, v := range vals {
		keys[i] = EncodeKey(I(v))
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("int key encoding not order-preserving: %q", keys)
	}
}

func TestEncodeKeyOrderPreservingFloats(t *testing.T) {
	vals := []float64{-1e10, -2.5, -0.1, 0, 0.1, 2.5, 1e10}
	keys := make([]string, len(vals))
	for i, v := range vals {
		keys[i] = EncodeKey(F(v))
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("float key encoding not order-preserving: %q", keys)
	}
}

// TestEncodeKeyOneAlloc: a key of up to 64 bytes is built on the stack,
// so the string is the only allocation; a longer one is still the same
// encoding AppendKey produces.
func TestEncodeKeyOneAlloc(t *testing.T) {
	testenv.NeedsAllocCounts(t)
	vals := []Value{I(42), S("a station name")}
	var key string
	if n := testing.AllocsPerRun(100, func() { key = EncodeKey(vals...) }); n != 1 {
		t.Errorf("EncodeKey of a %d-byte key allocated %v times, want 1", len(key), n)
	}
	if want := string(AppendKey(nil, vals...)); key != want || len(key) > 64 {
		t.Errorf("EncodeKey = %q (%d bytes), AppendKey = %q", key, len(key), want)
	}
	long := []Value{S(strings.Repeat("x\x00", 100)), I(7)}
	if got, want := EncodeKey(long...), string(AppendKey(nil, long...)); got != want || len(got) < 200 {
		t.Errorf("EncodeKey of a long key = %q, AppendKey = %q", got, want)
	}
}

func TestRowCloneAndProject(t *testing.T) {
	r := Row{I(1), S("x"), F(2.5)}
	c := r.Clone()
	c[0] = I(9)
	if r[0].Int() != 1 {
		t.Error("Clone aliases")
	}
	p := r.Project([]int{2, 0})
	if len(p) != 2 || p[0].Float() != 2.5 || p[1].Int() != 1 {
		t.Errorf("Project = %v", p)
	}
	if got := r.String(); got != "(1, x, 2.5)" {
		t.Errorf("Row.String = %q", got)
	}
}

// fuzzValues decodes fuzz bytes into a value list: a tag byte picks the
// type, ints and floats take the next eight bytes (floats as raw bits,
// so NaNs and both zeros occur), strings a length byte and that many
// bytes — any bytes, NUL included.
func fuzzValues(data []byte) Row {
	var out Row
	for len(data) > 0 {
		tag := data[0]
		data = data[1:]
		if tag%3 == 2 {
			n := 0
			if len(data) > 0 {
				n, data = int(data[0]%6), data[1:]
			}
			n = min(n, len(data))
			out = append(out, S(string(data[:n])))
			data = data[n:]
			continue
		}
		var word [8]byte
		data = data[copy(word[:], data):]
		bits := binary.BigEndian.Uint64(word[:])
		if tag%3 == 0 {
			out = append(out, I(int64(bits)))
		} else {
			out = append(out, F(math.Float64frombits(bits)))
		}
	}
	return out
}

// FuzzAppendKeyMatchesEncodeKey: the exported buffer codec, the string
// codec and SameKey are one definition of key equality — what lets a
// hash join look rows up by AppendKey bytes while everything else keys
// its maps by EncodeKey.
func FuzzAppendKeyMatchesEncodeKey(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1}, []byte{1, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0x80, 0, 0, 0, 0, 0, 0, 0}, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 2, 'a', 'b', 2, 0}, []byte{2, 1, 'a', 2, 1, 'b'})
	f.Add([]byte{}, []byte{2, 0})
	// ("a\x00sb") and ("a", "b"): one encoding before NULs were escaped.
	f.Add([]byte{2, 4, 'a', 0, 's', 'b'}, []byte{2, 1, 'a', 2, 1, 'b'})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ra, rb := fuzzValues(a), fuzzValues(b)
		for _, r := range []Row{ra, rb} {
			want := EncodeKey(r...)
			if got := string(AppendKey(nil, r...)); got != want {
				t.Fatalf("AppendKey(nil, %v) = %q, EncodeKey %q", r, got, want)
			}
			// Value by value after a prefix, as a join encodes key columns.
			buf := []byte("prefix")
			for _, v := range r {
				buf = AppendKey(buf, v)
			}
			if got := string(buf); got != "prefix"+want {
				t.Fatalf("AppendKey after a prefix, %v: %q, want %q", r, got, "prefix"+want)
			}
		}
		if got, want := ra.SameKey(rb), EncodeKey(ra...) == EncodeKey(rb...); got != want {
			t.Fatalf("%v.SameKey(%v) = %v, EncodeKey equality %v", ra, rb, got, want)
		}
	})
}

// sign is c's sign: -1, 0 or 1.
func sign(c int) int { return min(max(c, -1), 1) }

// TestCompareKeysMatchesEncoding: CompareKeys orders value lists as their
// key encodings do — across types in one column, at both zeros and NaN
// bit patterns, over strings with NULs and prefixes, and between lists
// of unequal length — and rows it calls equal hash alike.
func TestCompareKeysMatchesEncoding(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001)
	negNaN := math.Float64frombits(0xfff0000000000001)
	values := []Value{
		I(math.MinInt64), I(-1), I(0), I(1), I(2), I(math.MaxInt64),
		F(math.Inf(-1)), F(-2.5), F(math.Copysign(0, -1)), F(0), F(2), F(math.Inf(1)), F(nan), F(negNaN), F(math.NaN()),
		S(""), S("\x00"), S("\x00\x00"), S("\x00\x01"), S("\x00\xff"), S("\x01"), S("a"), S("a\x00"), S("a\x00b"), S("ab"), S("b"), S("\xff"),
	}
	var rows []Row
	for _, v := range values {
		rows = append(rows, Row{v})
		for _, w := range []Value{I(0), F(0), S(""), S("a")} {
			rows = append(rows, Row{v, w}, Row{w, v}, Row{v, w, v})
		}
	}
	rows = append(rows, Row{}, nil)
	for _, a := range rows {
		for _, b := range rows {
			got := sign(CompareKeys(a, b))
			want := sign(strings.Compare(EncodeKey(a...), EncodeKey(b...)))
			if got != want {
				t.Fatalf("CompareKeys(%v, %v) = %d, the encodings compare %d", a, b, got, want)
			}
			if got == 0 && a.Hash() != b.Hash() {
				t.Fatalf("%v and %v compare equal but hash %x and %x", a, b, a.Hash(), b.Hash())
			}
		}
	}
	// Different rows of a narrow domain hash apart: a hash-keyed map rarely
	// has to settle a collision.
	seen := map[uint64]Row{}
	for i := int64(0); i < 64; i++ {
		for _, s := range []string{"", "EAST", "WEST", "EAST\x00"} {
			for _, r := range []Row{{I(i), S(s)}, {S(s), I(i)}, {F(float64(i)), S(s)}, {I(i)}} {
				if o, ok := seen[r.Hash()]; ok && !o.SameKey(r) {
					t.Fatalf("%v and %v hash alike", o, r)
				}
				seen[r.Hash()] = r
			}
		}
	}
}

// FuzzCompareKeys: CompareKeys and the key encoding are one order, and
// rows that compare equal hash alike — what lets a view keep its entries
// by hash and render them in encoded-key order without encoding a key.
func FuzzCompareKeys(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1}, []byte{1, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0x80, 0, 0, 0, 0, 0, 0, 0}, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1}, []byte{1, 0xff, 0xf0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{2, 2, 'a', 0, 0, 1}, []byte{2, 1, 'a', 2, 0})
	f.Add([]byte{2, 4, 'a', 0, 's', 'b'}, []byte{2, 1, 'a', 2, 1, 'b'})
	f.Add([]byte{2, 1, 'a'}, []byte{2, 2, 'a', 'b'})
	f.Add([]byte{}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ra, rb := fuzzValues(a), fuzzValues(b)
		got := sign(CompareKeys(ra, rb))
		if want := sign(strings.Compare(EncodeKey(ra...), EncodeKey(rb...))); got != want {
			t.Fatalf("CompareKeys(%v, %v) = %d, the encodings compare %d", ra, rb, got, want)
		}
		if got == 0 && ra.Hash() != rb.Hash() {
			t.Fatalf("%v and %v compare equal but hash %x and %x", ra, rb, ra.Hash(), rb.Hash())
		}
	})
}
