package storage

import (
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"unsafe"
)

// updateGolden rewrites testdata/value_golden.txt from the running code.
// The committed file was written by the commit before Value became
// {T, n, s}; it is regenerated only by a change that means to move an
// encoding, an ordering or a float semantic.
var updateGolden = flag.Bool("update", false, "rewrite testdata/value_golden.txt")

// TestValueSize pins the width the row-copying paths pay for: one type
// byte (padded), one 8-byte number slot, one string header.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// goldenValues is the vector set: every constructor, with the integers
// and floats whose bit patterns a representation change could disturb.
func goldenValues() []Value {
	return []Value{
		I(0), I(1), I(-1), I(math.MinInt64), I(math.MaxInt64), I(1 << 53), I(1<<53 + 1),
		F(0), F(math.Copysign(0, -1)), F(1), F(-1), F(1.5), F(1 << 53),
		F(math.Inf(1)), F(math.Inf(-1)), F(math.MaxFloat64), F(math.SmallestNonzeroFloat64),
		F(math.Float64frombits(0x7ff8000000000001)), F(math.Float64frombits(0xfff8000000000abc)),
		S(""), S("a"), S("a\x00b"), S("abc"), S("é"),
	}
}

// goldenLines renders everything the representation must not move: per
// value its key encoding, its packed row encoding and what that decodes
// and re-encodes to, and its display form; per ordered pair the outcome
// of Compare (or that it panics), Equal and SameKey.
func goldenLines(t *testing.T) []string {
	vals := goldenValues()
	var lines []string
	for i, v := range vals {
		packed := AppendRow(nil, Row{v})
		dec, rest, err := DecodeRow(nil, packed, 1)
		if err != nil || len(rest) != 0 {
			t.Fatalf("value %d: DecodeRow: %v, %d bytes left", i, err, len(rest))
		}
		lines = append(lines, fmt.Sprintf("v %d type=%s key=%s row=%s rekey=%s rerow=%s str=%q",
			i, v.T, hex.EncodeToString(AppendKey(nil, v)), hex.EncodeToString(packed),
			hex.EncodeToString(AppendKey(nil, dec...)), hex.EncodeToString(AppendRow(nil, dec)), v.String()))
	}
	for i, a := range vals {
		for j, b := range vals {
			cmp := "panic"
			func() {
				defer func() { _ = recover() }()
				c, eq := Compare(a, b), Equal(a, b)
				cmp = fmt.Sprintf("%d/%t", c, eq)
			}()
			lines = append(lines, fmt.Sprintf("c %d %d cmp=%s samekey=%t", i, j, cmp, Row{a}.SameKey(Row{b})))
		}
	}
	all := AppendKey(nil, vals...)
	lines = append(lines, fmt.Sprintf("k all=%s encodekey=%t", hex.EncodeToString(all), EncodeKey(vals...) == string(all)))
	return lines
}

// TestValueGoldenVectors holds the value layout to the bytes, orderings
// and display forms of the layout before it.
func TestValueGoldenVectors(t *testing.T) {
	const path = "testdata/value_golden.txt"
	got := strings.Join(goldenLines(t), "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, g := range strings.Split(got, "\n") {
		if i >= len(wantLines) || g != wantLines[i] {
			t.Fatalf("line %d:\n got  %s\n want %s", i+1, g, append(wantLines, "<none>")[min(i, len(wantLines))])
		}
	}
	t.Fatalf("golden file has %d lines, code produced fewer", len(wantLines))
}
