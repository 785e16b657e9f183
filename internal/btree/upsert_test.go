package btree

import (
	"math/rand"
	"testing"
)

// checkShape verifies the B-tree invariants DeleteIf's top-up-then-keep
// path must not break: every node but the root holds between degree-1 and
// maxItems items, an internal node one child more than items, all leaves
// at one depth, and size equal to the item count.
func checkShape[K, V any](t *testing.T, m *Map[K, V]) {
	t.Helper()
	items, leafDepth := 0, -1
	var walk func(n *node[K, V], depth int)
	walk = func(n *node[K, V], depth int) {
		if n != m.root && (len(n.items) < degree-1 || len(n.items) > maxItems) {
			t.Fatalf("node at depth %d holds %d items", depth, len(n.items))
		}
		items += len(n.items)
		if n.leaf() {
			if leafDepth < 0 {
				leafDepth = depth
			}
			if depth != leafDepth {
				t.Fatalf("leaf at depth %d, another at %d", depth, leafDepth)
			}
			return
		}
		if len(n.children) != len(n.items)+1 {
			t.Fatalf("internal node with %d items has %d children", len(n.items), len(n.children))
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	if m.root != nil {
		walk(m.root, 0)
	}
	if items != m.Len() {
		t.Fatalf("tree holds %d items, Len says %d", items, m.Len())
	}
}

// TestUpsertMatchesGetSet drives one counting multiset two ways over
// random sequences — in place (Upsert to count up, DeleteIf to count down
// and remove at zero) and by Get then Set or Delete — and requires the
// two maps to agree on every return value, on Len after every step, and
// on content and shape at intervals.
func TestUpsertMatchesGetSet(t *testing.T) {
	inc := func(n *int) { *n++ }
	dec := func(n *int) bool { *n--; return *n == 0 }
	for _, keys := range []int{8, 300, 5000} {
		rng := rand.New(rand.NewSource(int64(keys)))
		inPlace, twoStep := New[int, int](intCmp), New[int, int](intCmp)
		ref := map[int]int{}
		for op := 0; op < 40000; op++ {
			k := rng.Intn(keys)
			// Grow for a while, then shrink for a while, so deletions reach
			// merges and root collapses, not only leaf removals.
			if grow := (op/4000)%2 == 0; (rng.Intn(10) < 7) == grow {
				n, existed := twoStep.Get(k)
				twoStep.Set(k, n+1)
				if inserted := inPlace.Upsert(k, inc); inserted == existed {
					t.Fatalf("keys=%d op %d: Upsert(%d) inserted=%t, key existed=%t", keys, op, k, inserted, existed)
				}
				ref[k]++
			} else {
				n, existed := twoStep.Get(k)
				switch {
				case n > 1:
					twoStep.Set(k, n-1)
					ref[k]--
				case existed:
					twoStep.Delete(k)
					delete(ref, k)
				}
				if found := inPlace.DeleteIf(k, dec); found != existed {
					t.Fatalf("keys=%d op %d: DeleteIf(%d) found=%t, key existed=%t", keys, op, k, found, existed)
				}
			}
			if inPlace.Len() != twoStep.Len() {
				t.Fatalf("keys=%d op %d: Len %d in place, %d by Get+Set", keys, op, inPlace.Len(), twoStep.Len())
			}
			if op%2000 == 0 {
				checkAgainstRef(t, inPlace, ref)
				checkAgainstRef(t, twoStep, ref)
				checkShape(t, inPlace)
			}
		}
		checkAgainstRef(t, inPlace, ref)
		checkAgainstRef(t, twoStep, ref)
		checkShape(t, inPlace)
	}
}

// TestDeleteIfKeeps: a drop that declines leaves the key, its rewritten
// value and the size in place, wherever in the tree the key sits.
func TestDeleteIfKeeps(t *testing.T) {
	m := New[int, int](intCmp)
	for k := 0; k < 2000; k++ {
		m.Set(k, k)
	}
	for k := 0; k < 2000; k++ {
		if !m.DeleteIf(k, func(v *int) bool { *v = -*v; return false }) {
			t.Fatalf("DeleteIf(%d) did not find the key", k)
		}
	}
	if m.DeleteIf(2000, func(*int) bool { t.Fatal("drop called for an absent key"); return true }) {
		t.Fatal("DeleteIf found an absent key")
	}
	if m.Len() != 2000 {
		t.Fatalf("Len = %d after 2000 declined drops", m.Len())
	}
	for k := 0; k < 2000; k++ {
		if v, ok := m.Get(k); !ok || v != -k {
			t.Fatalf("Get(%d) = (%d, %t), want (%d, true)", k, v, ok, -k)
		}
	}
	checkShape(t, m)
}

func BenchmarkMultisetInPlace(b *testing.B) {
	m := New[int, int](intCmp)
	for k := 0; k < 4096; k++ {
		m.Set(k, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := (i * 7919) % 4096
		m.Upsert(k, func(n *int) { *n++ })
		m.DeleteIf(k, func(n *int) bool { *n--; return *n == 0 })
	}
}
