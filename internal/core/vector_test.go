package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorBasics(t *testing.T) {
	v := NewVector(3)
	if !v.IsZero() {
		t.Fatalf("new vector not zero: %v", v)
	}
	v[0], v[2] = 4, 7
	if v.IsZero() {
		t.Fatalf("vector with entries reported zero: %v", v)
	}
	if got := v.Sum(); got != 11 {
		t.Fatalf("Sum = %d, want 11", got)
	}
	w := v.Clone()
	w[0] = 100
	if v[0] != 4 {
		t.Fatalf("Clone aliases the original")
	}
}

func TestVectorArithmetic(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 0, 1}
	if got := v.Add(w); !got.Equal(Vector{5, 2, 4}) {
		t.Fatalf("Add = %v", got)
	}
	if got := w.Sub(v); !got.Equal(Vector{3, -2, -2}) {
		t.Fatalf("Sub = %v", got)
	}
	u := v.Clone()
	u.AddInPlace(w)
	if !u.Equal(Vector{5, 2, 4}) {
		t.Fatalf("AddInPlace = %v", u)
	}
	u.SubInPlace(w)
	if !u.Equal(v) {
		t.Fatalf("SubInPlace = %v", u)
	}
}

func TestVectorDominatedBy(t *testing.T) {
	cases := []struct {
		v, w Vector
		want bool
	}{
		{Vector{0, 0}, Vector{0, 0}, true},
		{Vector{1, 2}, Vector{1, 2}, true},
		{Vector{1, 2}, Vector{2, 2}, true},
		{Vector{3, 2}, Vector{2, 2}, false},
		{Vector{0, 3}, Vector{1, 2}, false},
	}
	for _, c := range cases {
		if got := c.v.DominatedBy(c.w); got != c.want {
			t.Errorf("%v DominatedBy %v = %t, want %t", c.v, c.w, got, c.want)
		}
	}
}

func TestVectorNonNegative(t *testing.T) {
	if !(Vector{0, 1, 2}).NonNegative() {
		t.Error("non-negative vector rejected")
	}
	if (Vector{0, -1, 2}).NonNegative() {
		t.Error("negative vector accepted")
	}
}

func TestVectorEqual(t *testing.T) {
	if !(Vector{1, 2}).Equal(Vector{1, 2}) {
		t.Error("equal vectors reported unequal")
	}
	if (Vector{1, 2}).Equal(Vector{1, 3}) {
		t.Error("unequal vectors reported equal")
	}
	if (Vector{1, 2}).Equal(Vector{1, 2, 3}) {
		t.Error("different lengths reported equal")
	}
}

func TestVectorKeyInjective(t *testing.T) {
	// Property: distinct vectors have distinct keys (within a bounded
	// domain this is what the search dedup relies on).
	rng := rand.New(rand.NewSource(1))
	seen := map[string]Vector{}
	for trial := 0; trial < 2000; trial++ {
		v := NewVector(3)
		for i := range v {
			v[i] = rng.Intn(50)
		}
		k := v.Key()
		if prev, ok := seen[k]; ok && !prev.Equal(v) {
			t.Fatalf("key collision: %v and %v share key %q", prev, v, k)
		}
		seen[k] = v
	}
}

func TestVectorStringAndKey(t *testing.T) {
	v := Vector{3, 0, 12}
	if got := v.String(); got != "[3 0 12]" {
		t.Fatalf("String = %q", got)
	}
	if got := v.Key(); got != "3,0,12" {
		t.Fatalf("Key = %q", got)
	}
}

// TestVectorKeyLessIsKeyOrder: KeyLess orders vectors as their rendered
// keys compare — "10" before "9" — which is the tie-break order action
// selection has always used.
func TestVectorKeyLessIsKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(4)
		v, w := NewVector(n), NewVector(n)
		for i := range v {
			v[i], w[i] = rng.Intn(120), rng.Intn(120)
		}
		if rng.Intn(4) == 0 {
			copy(w, v)
		}
		if got, want := v.KeyLess(w), v.Key() < w.Key(); got != want {
			t.Fatalf("%v.KeyLess(%v) = %v, want %v", v, w, got, want)
		}
	}
	if !(Vector{10, 0}).KeyLess(Vector{9, 0}) {
		t.Fatal("KeyLess compares components, not keys")
	}
}

func TestVectorAddSubRoundTrip(t *testing.T) {
	f := func(a, b [4]uint8) bool {
		v := Vector{int(a[0]), int(a[1]), int(a[2]), int(a[3])}
		w := Vector{int(b[0]), int(b[1]), int(b[2]), int(b[3])}
		return v.Add(w).Sub(w).Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectorLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched lengths did not panic")
		}
	}()
	_ = Vector{1}.Add(Vector{1, 2})
}
