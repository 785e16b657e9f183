package ivm

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"abivm/internal/storage"
)

// TestMultisetAgainstSortedReference: random adds and removes, which
// keep deleting the cached extrema, leave a multiset whose least and
// greatest value are a sorted reference's first and last — with −0.0
// and +0.0 counted as one value, rendered +0.0.
func TestMultisetAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := []storage.Value{storage.F(math.Copysign(0, -1)), storage.F(0), storage.F(-2.5), storage.F(7), storage.F(1e300), storage.F(-1e300)}
	for i := 0; i < 12; i++ {
		values = append(values, storage.F(float64(rng.Intn(40)-20)/4))
	}
	m := &multiset{}
	var ref []storage.Value
	for op := 0; op < 20000; op++ {
		if len(ref) > 0 && rng.Intn(5) < 2+len(ref)/40 {
			i := rng.Intn(len(ref))
			if rng.Intn(2) == 0 {
				i = rng.Intn(2) * (len(ref) - 1) // an extremum
			}
			m.remove(ref[i])
			ref = slices.Delete(ref, i, i+1)
		} else {
			v := values[rng.Intn(len(values))]
			m.add(v)
			at, _ := slices.BinarySearchFunc(ref, v, storage.Compare)
			ref = slices.Insert(ref, at, v)
		}
		if len(ref) == 0 || rng.Intn(3) > 0 {
			continue
		}
		lo, hi := m.extrema()
		if storage.Compare(lo, ref[0]) != 0 || storage.Compare(hi, ref[len(ref)-1]) != 0 {
			t.Fatalf("op %d: multiset extrema %v, %v; reference %v, %v", op, lo, hi, ref[0], ref[len(ref)-1])
		}
		for _, v := range []storage.Value{lo, hi} {
			if v.T == storage.TFloat && math.Signbit(v.Float()) && v.Float() == 0 {
				t.Fatalf("op %d: an extremum renders as -0", op)
			}
		}
	}
	var n int64
	for _, c := range m.nums {
		n += c
	}
	if int(n) != len(ref) {
		t.Fatalf("multiset counts %d values, reference %d", n, len(ref))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("retracting an absent value did not panic")
		}
	}()
	m.remove(storage.F(12345))
}
