package core

import (
	"fmt"
	"strings"
	"testing"
)

// legacyKey reproduces the pre-optimization Key implementation
// (fmt.Sprintf + strings.Join churn) as the benchmark baseline for the
// strconv.AppendInt + pooled-buffer rewrite.
func legacyKey(v Vector) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, ",")
}

func benchVector() Vector { return Vector{123, 4, 56789, 0, 42} }

func TestLegacyKeyAgrees(t *testing.T) {
	for _, v := range []Vector{{}, {0}, {1, 2, 3}, {-5, 1000000, 7}, benchVector()} {
		if got, want := v.Key(), legacyKey(v); got != want {
			t.Fatalf("Key(%v) = %q, legacy %q", v, got, want)
		}
	}
}

func BenchmarkVectorKey(b *testing.B) {
	v := benchVector()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = v.Key()
	}
}

func BenchmarkGreedyActionSet(b *testing.B) {
	m := NewCostModel(linFunc{0.5, 2}, linFunc{1.5, 1}, linFunc{0.8, 3})
	s := Vector{14, 9, 22}
	c := m.Total(s) * 0.6
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = GreedyActionSet(s, m, c, true)
		}
	})
	b.Run("scratch", func(b *testing.B) {
		var sc ActionScratch
		var buf []Vector
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = sc.GreedyActionsInto(buf, s, m, c, true)
		}
	})
}
