// Package obs is the observability subsystem of the ABIVM runtime: a
// std-lib-only metrics registry (counters, gauges, fixed-bucket
// histograms), lightweight trace spans recorded into a bounded ring
// buffer, and an HTTP mux exposing both plus health and profiling
// endpoints (see serve.go). The paper's evaluation is all about measured
// per-step costs and constraint headroom (Section 5, Figs. 5-7); this
// package exports the same quantities live instead of recomputing them
// offline.
//
// Design constraints, in order:
//
//   - Zero dependencies beyond the standard library, like the rest of
//     the module.
//   - Race-clean under concurrent writers: every metric update is a
//     single atomic operation (plus a CAS loop for float accumulation),
//     so hot paths never contend on a registry lock.
//   - Near-zero cost when no sink is attached: instrumented components
//     hold nil metric structs by default and skip all measurement work
//     (including time.Now calls) behind one nil check. The Fig6
//     benchmark guards this property against the committed baseline.
//   - Snapshot-able for tests: Snapshot returns a consistent, sorted,
//     caller-owned copy of every metric.
//
// Metric names are registered with compile-time constant strings only —
// scripts/docs_check.sh rejects a registration whose name is not a string
// literal, since a dynamic name would unbound the registry and break
// dashboards.
// Dynamic dimensions (subscription names, fault sites) go into labels.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is
// usable; all methods are safe for concurrent use and nil-receivers
// no-op, so call sites need no sink-attached check of their own.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n; negative n is ignored (counters never decrease).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value. The zero value is usable;
// all methods are safe for concurrent use and nil receivers no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add accumulates v via a CAS loop.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed upper-bound buckets plus an
// implicit +Inf overflow bucket, and tracks the observation sum. All
// methods are safe for concurrent use and nil receivers no-op.
type Histogram struct {
	bounds  []float64 // sorted, strictly increasing upper bounds
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// newHistogram validates and copies the bounds.
func newHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket bound")
	}
	own := append([]float64(nil), bounds...)
	for i := 1; i < len(own); i++ {
		if own[i] <= own[i-1] {
			return nil, fmt.Errorf("obs: histogram bounds must be strictly increasing (%g after %g)", own[i], own[i-1])
		}
	}
	return &Histogram{bounds: own, counts: make([]atomic.Int64, len(own)+1)}, nil
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = +Inf
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the observation sum (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// LatencyBuckets is the default bound set for second-denominated
// durations: 10µs to ~10s, roughly ×3 per step.
func LatencyBuckets() []float64 {
	return []float64{1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10}
}

// SizeBuckets is the default bound set for byte sizes and other counts:
// 64 to ~4M, ×4 per step.
func SizeBuckets() []float64 {
	return []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304}
}

// metricKind tags registry entries.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Label is one name dimension, e.g. {Key: "sub", Value: "east"}.
type Label struct {
	Key   string
	Value string
}

// metric is one registered instrument. A gauge with fn set reads fn()
// at each snapshot instead of g.
type metric struct {
	name   string
	labels []Label
	kind   metricKind
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// Registry holds named metrics. Registration (Counter/Gauge/GaugeFunc/
// Histogram) takes a short lock and is idempotent — the same name+labels
// returns the same instrument — so instrumented components register once
// at attach time and hot paths touch only the lock-free instruments.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

// id renders the canonical registry key: name plus labels in the given
// order (call sites use fixed label orders, so no sorting is needed).
func id(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// validName enforces the metric/label-key grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// pairsToLabels converts alternating key,value strings.
func pairsToLabels(name string, kv []string) ([]Label, error) {
	if !validName(name) {
		return nil, fmt.Errorf("obs: invalid metric name %q (want [a-z_][a-z0-9_]*)", name)
	}
	if len(kv)%2 != 0 {
		return nil, fmt.Errorf("obs: metric %q: labels must be key,value pairs (got %d strings)", name, len(kv))
	}
	out := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		if !validName(kv[i]) {
			return nil, fmt.Errorf("obs: metric %q: invalid label key %q", name, kv[i])
		}
		out = append(out, Label{Key: kv[i], Value: kv[i+1]})
	}
	return out, nil
}

// lookup returns or creates the entry for name+labels, enforcing kind
// consistency.
func (r *Registry) lookup(name string, kind metricKind, kv []string) (*metric, error) {
	labels, err := pairsToLabels(name, kv)
	if err != nil {
		return nil, err
	}
	key := id(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			return nil, fmt.Errorf("obs: metric %q already registered as a %s, requested as a %s", key, m.kind, kind)
		}
		return m, nil
	}
	m := &metric{name: name, labels: labels, kind: kind}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	}
	r.metrics[key] = m
	return m, nil
}

// Counter returns the counter registered under name and the alternating
// key,value label pairs, creating it on first use. It panics on an
// invalid name, odd label pairs, or a kind conflict with an existing
// registration — all programming errors caught at attach time, never on
// a hot path. A nil registry returns nil (a no-op counter).
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	m, err := r.lookup(name, kindCounter, labelPairs)
	if err != nil {
		panic(err)
	}
	return m.c
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use. Panics and nil behavior mirror Counter.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	m, err := r.lookup(name, kindGauge, labelPairs)
	if err != nil {
		panic(err)
	}
	return m.g
}

// GaugeFunc registers fn as the level of the gauge under name+labels:
// every snapshot calls it, after releasing the registry's lock, so fn
// may take other locks and register metrics. A later registration under
// the same name and labels replaces fn. Panics and nil behavior mirror
// Gauge.
func (r *Registry) GaugeFunc(name string, fn func() float64, labelPairs ...string) {
	if r == nil {
		return
	}
	m, err := r.lookup(name, kindGauge, labelPairs)
	if err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m.fn = fn
}

// Histogram returns the histogram registered under name+labels with the
// given bucket upper bounds, creating it on first use (later calls keep
// the first bounds). Panics and nil behavior mirror Counter, plus a
// panic on empty or non-increasing bounds.
func (r *Registry) Histogram(name string, bounds []float64, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	m, err := r.lookup(name, kindHistogram, labelPairs)
	if err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.h == nil {
		h, err := newHistogram(bounds)
		if err != nil {
			panic(err)
		}
		m.h = h
	}
	return m.h
}

// Bucket is one histogram bucket in a snapshot: the cumulative count of
// observations at or below UpperBound (+Inf for the overflow bucket).
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// MetricSnapshot is one metric's state at snapshot time.
type MetricSnapshot struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Type   string  `json:"type"`
	// Value carries the counter count or gauge level.
	Value float64 `json:"value"`
	// Count, Sum, and Buckets are set for histograms only.
	Count   int64    `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Key renders the snapshot's canonical name{labels} identity.
func (s MetricSnapshot) Key() string { return id(s.Name, s.Labels) }

// Snapshot returns every metric's current state, sorted by canonical
// key. The result is caller-owned; concurrent updates during the
// snapshot may be partially visible per metric but never corrupt it.
// Entries are copied under the registry's lock and a GaugeFunc's
// function is called after it is released.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := make([]metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, *m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return id(ms[i].name, ms[i].labels) < id(ms[j].name, ms[j].labels) })
	out := make([]MetricSnapshot, 0, len(ms))
	for _, m := range ms {
		s := MetricSnapshot{
			Name:   m.name,
			Labels: append([]Label(nil), m.labels...),
			Type:   m.kind.String(),
		}
		switch m.kind {
		case kindCounter:
			s.Value = float64(m.c.Value())
		case kindGauge:
			s.Value = m.g.Value()
			if m.fn != nil {
				s.Value = m.fn()
			}
		case kindHistogram:
			h := m.h
			if h == nil {
				break
			}
			s.Count = h.Count()
			s.Sum = h.Sum()
			cum := int64(0)
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				s.Buckets = append(s.Buckets, Bucket{UpperBound: b, Count: cum})
			}
			cum += h.counts[len(h.bounds)].Load()
			s.Buckets = append(s.Buckets, Bucket{UpperBound: math.Inf(1), Count: cum})
		}
		out = append(out, s)
	}
	return out
}
