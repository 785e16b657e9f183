package btree

import (
	"math/rand"
	"sort"
	"testing"
)

func intCmp(a, b int) int { return a - b }

func TestEmptyMap(t *testing.T) {
	m := New[int, string](intCmp)
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
	if _, ok := m.Get(1); ok {
		t.Fatal("Get on empty map found a key")
	}
	if m.Delete(1) {
		t.Fatal("Delete on empty map reported success")
	}
	if _, _, ok := m.Min(); ok {
		t.Fatal("Min on empty map")
	}
	if _, _, ok := m.Max(); ok {
		t.Fatal("Max on empty map")
	}
	calls := 0
	m.Ascend(func(int, string) bool { calls++; return true })
	if calls != 0 {
		t.Fatal("Ascend visited entries of an empty map")
	}
}

func TestSetGetDelete(t *testing.T) {
	m := New[int, int](intCmp)
	if !m.Set(5, 50) {
		t.Fatal("first Set not reported as insert")
	}
	if m.Set(5, 55) {
		t.Fatal("overwrite reported as insert")
	}
	if v, ok := m.Get(5); !ok || v != 55 {
		t.Fatalf("Get = (%d, %t)", v, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
	if !m.Delete(5) {
		t.Fatal("Delete failed")
	}
	if m.Len() != 0 {
		t.Fatalf("Len after delete = %d", m.Len())
	}
	if _, ok := m.Get(5); ok {
		t.Fatal("deleted key still present")
	}
}

func TestOrderedIteration(t *testing.T) {
	m := New[int, int](intCmp)
	perm := rand.New(rand.NewSource(1)).Perm(1000)
	for _, k := range perm {
		m.Set(k, k*10)
	}
	var keys []int
	m.Ascend(func(k, v int) bool {
		if v != k*10 {
			t.Fatalf("value mismatch at key %d: %d", k, v)
		}
		keys = append(keys, k)
		return true
	})
	if len(keys) != 1000 {
		t.Fatalf("visited %d keys", len(keys))
	}
	if !sort.IntsAreSorted(keys) {
		t.Fatal("Ascend order not sorted")
	}
}

func TestAscendEarlyStop(t *testing.T) {
	m := New[int, int](intCmp)
	for i := 0; i < 100; i++ {
		m.Set(i, i)
	}
	count := 0
	m.Ascend(func(k, v int) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("visited %d, want 10", count)
	}
}

func TestMinMax(t *testing.T) {
	m := New[int, string](intCmp)
	m.Set(10, "ten")
	m.Set(3, "three")
	m.Set(77, "seventy-seven")
	if k, v, ok := m.Min(); !ok || k != 3 || v != "three" {
		t.Fatalf("Min = (%d, %q, %t)", k, v, ok)
	}
	if k, v, ok := m.Max(); !ok || k != 77 || v != "seventy-seven" {
		t.Fatalf("Max = (%d, %q, %t)", k, v, ok)
	}
}

func TestRandomOpsAgainstReferenceMap(t *testing.T) {
	// Property test: a long random op sequence must agree with a Go map
	// plus sorting, at every step for Len and at checkpoints for content.
	rng := rand.New(rand.NewSource(42))
	m := New[int, int](intCmp)
	ref := map[int]int{}
	const ops = 30000
	for op := 0; op < ops; op++ {
		k := rng.Intn(2000)
		switch rng.Intn(3) {
		case 0, 1: // insert/overwrite biased 2:1
			v := rng.Int()
			_, existed := ref[k]
			inserted := m.Set(k, v)
			if inserted == existed {
				t.Fatalf("op %d: Set(%d) inserted=%t, ref existed=%t", op, k, inserted, existed)
			}
			ref[k] = v
		case 2:
			_, existed := ref[k]
			deleted := m.Delete(k)
			if deleted != existed {
				t.Fatalf("op %d: Delete(%d) = %t, ref existed=%t", op, k, deleted, existed)
			}
			delete(ref, k)
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len %d != ref %d", op, m.Len(), len(ref))
		}
		if op%5000 == 0 {
			checkAgainstRef(t, m, ref)
		}
	}
	checkAgainstRef(t, m, ref)
}

func checkAgainstRef(t *testing.T, m *Map[int, int], ref map[int]int) {
	t.Helper()
	var keys []int
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	i := 0
	m.Ascend(func(k, v int) bool {
		if i >= len(keys) {
			t.Fatalf("extra key %d in tree", k)
		}
		if k != keys[i] || v != ref[k] {
			t.Fatalf("position %d: tree (%d,%d), ref (%d,%d)", i, k, v, keys[i], ref[keys[i]])
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("tree has %d keys, ref %d", i, len(keys))
	}
}

func TestDeleteAllAscendingAndDescending(t *testing.T) {
	for _, descending := range []bool{false, true} {
		m := New[int, int](intCmp)
		const n = 5000
		for i := 0; i < n; i++ {
			m.Set(i, i)
		}
		for i := 0; i < n; i++ {
			k := i
			if descending {
				k = n - 1 - i
			}
			if !m.Delete(k) {
				t.Fatalf("descending=%t: Delete(%d) failed", descending, k)
			}
		}
		if m.Len() != 0 {
			t.Fatalf("descending=%t: Len = %d after deleting all", descending, m.Len())
		}
	}
}

func TestStringKeys(t *testing.T) {
	m := New[string, int](func(a, b string) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	})
	words := []string{"partsupp", "supplier", "nation", "region", "part"}
	for i, w := range words {
		m.Set(w, i)
	}
	if k, _, _ := m.Min(); k != "nation" {
		t.Fatalf("Min = %q", k)
	}
	if k, _, _ := m.Max(); k != "supplier" {
		t.Fatalf("Max = %q", k)
	}
}

func TestNewNilCmpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil cmp accepted")
		}
	}()
	New[int, int](nil)
}

func BenchmarkSet(b *testing.B) {
	m := New[int, int](intCmp)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		m.Set(rng.Intn(1<<20), i)
	}
}

func BenchmarkGet(b *testing.B) {
	m := New[int, int](intCmp)
	for i := 0; i < 1<<16; i++ {
		m.Set(i, i)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(rng.Intn(1 << 16))
	}
}
