package storage

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestInternConcurrent: goroutines interning overlapping string sets at
// once agree on every id — equal strings give == values — and every
// value reads back its string. Run under -race it also checks that the
// lock-free reads never race the writer that grows the table.
func TestInternConcurrent(t *testing.T) {
	const workers, perWorker = 4, 3000
	prefix := t.Name() // strings no other test has interned, so they are added here
	got := make([][]Value, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker w interns [w*perWorker/2, w*perWorker/2+perWorker):
			// each half of its range is the next worker's first half.
			vals := make([]Value, perWorker)
			for i := range vals {
				s := fmt.Sprintf("%s/%d", prefix, w*perWorker/2+i)
				vals[i] = S(s)
				if vals[i].Str() != s || vals[i].String() != s {
					t.Errorf("S(%q) reads back as %q", s, vals[i].Str())
					return
				}
				_ = Row{vals[i]}.Hash()
			}
			got[w] = vals
		}()
	}
	wg.Wait()
	byText := map[string]Value{}
	for w, vals := range got {
		for i, v := range vals {
			s := fmt.Sprintf("%s/%d", prefix, w*perWorker/2+i)
			if o, ok := byText[s]; ok && o != v {
				t.Fatalf("%q interned as two values: %v and %v", s, o.n, v.n)
			}
			byText[s] = v
			if v != S(s) {
				t.Fatalf("%q: a later S gives another value", s)
			}
		}
	}
	ids := map[uint64]string{}
	for s, v := range byText {
		if o, ok := ids[v.n]; ok {
			t.Fatalf("%q and %q share id %d", o, s, v.n)
		}
		ids[v.n] = s
	}
}

// TestInternEmptyStringIsZero: "" is id 0, so the zero payload of a TEXT
// value reads as the empty string, and InternStats counts it.
func TestInternEmptyStringIsZero(t *testing.T) {
	if v := S(""); v != (Value{T: TString}) {
		t.Fatalf(`S("") = %+v, want the zero TEXT value`, v)
	}
	if s := (Value{T: TString}).Str(); s != "" {
		t.Fatalf("the zero TEXT value reads %q", s)
	}
	n, bytes := InternStats()
	fresh := fmt.Sprintf("%s/%d", t.Name(), n) // new: the count only grows
	S(fresh)
	n2, bytes2 := InternStats()
	if n < 1 || n2 != n+1 || bytes2 != bytes+len(fresh) {
		t.Fatalf("InternStats went from (%d, %d) to (%d, %d) interning %q", n, bytes, n2, bytes2, fresh)
	}
}

// byteWiseHash is Row{S(s)}.Hash() as the layout before the interner
// computed it, from the string's bytes.
func byteWiseHash(s string) uint64 {
	h := uint64(hashMul) // a row's length times hashMul
	typ := uint64(TString + 1)
	h = mix64((h ^ 0) + typ*hashMul) // a string's number slot was 0
	return mix64(h ^ hashString(s))
}

// FuzzInternedStrings: interning is injective and keeps every string
// semantic — S(a) == S(b) exactly when a == b, Compare and CompareKeys
// agree with strings.Compare, and a one-column row hashes as the bytes
// did before ids, NUL bytes included.
func FuzzInternedStrings(f *testing.F) {
	f.Add("", "")
	f.Add("a", "a\x00")
	f.Add("\x00", "")
	f.Add("EAST", "WEST")
	f.Add("é", "e")
	f.Add("abcdefgh", "abcdefghi")
	f.Fuzz(func(t *testing.T, a, b string) {
		va, vb := S(a), S(b)
		if (va == vb) != (a == b) {
			t.Fatalf("S(%q) == S(%q) is %t", a, b, va == vb)
		}
		if va.Str() != a || vb.Str() != b {
			t.Fatalf("S(%q), S(%q) read back as %q, %q", a, b, va.Str(), vb.Str())
		}
		want := strings.Compare(a, b)
		if got := Compare(va, vb); got != want {
			t.Fatalf("Compare(S(%q), S(%q)) = %d, want %d", a, b, got, want)
		}
		if got := sign(CompareKeys([]Value{va}, []Value{vb})); got != want {
			t.Fatalf("CompareKeys(S(%q), S(%q)) = %d, want %d", a, b, got, want)
		}
		for _, s := range []string{a, b} {
			if got, want := (Row{S(s)}).Hash(), byteWiseHash(s); got != want {
				t.Fatalf("Row{S(%q)}.Hash() = %x, the byte-wise hash is %x", s, got, want)
			}
		}
	})
}
