// Package obs is the observability subsystem of the ABIVM runtime: a
// std-lib-only metrics registry (counters and fixed-bucket histograms,
// plus the counters and gauges a collect function reads from its owner
// at each scrape), lightweight trace spans recorded into a bounded ring
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
//     (including time.Now calls) behind one nil check. The allocation
//     tests of internal/pubsub run the step loop detached, so
//     measurement work that allocates there fails them.
//   - Snapshot-able for tests: Snapshot returns a consistent, sorted,
//     caller-owned copy of every series.
//
// Metric names are registered with compile-time constant strings only —
// scripts/docs_check.sh rejects a registration whose name is not a string
// literal, since a dynamic name would unbound the registry and break
// dashboards.
// Dynamic dimensions (subscription names, fault sites) go into labels.
package obs

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// The series types, as a snapshot and the text format name them.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Label is one name dimension, e.g. {Key: "sub", Value: "east"}.
type Label struct {
	Key   string
	Value string
}

// metric is one registered instrument: a counter or a histogram, set at
// registration and never replaced.
type metric struct {
	key    string // id(name, labels), the registry's map key
	name   string
	labels []Label
	kind   string // typeCounter or typeHistogram
	c      *Counter
	h      *Histogram
}

// collectFunc is one owner's reporter of series read at the scrape.
type collectFunc struct {
	owner any
	fn    func(*Collector)
}

// Registry holds named metrics. Registration (Counter/Histogram) takes a
// short lock and is idempotent — the same name+labels returns the same
// instrument — so instrumented components register once at attach time
// and hot paths touch only the lock-free instruments. Series that read
// their owner's state — levels, and counts the owner keeps itself — are
// reported at each snapshot by the owner's collect function (Collect).
type Registry struct {
	mu       sync.Mutex
	metrics  map[string]*metric
	list     []*metric // the metrics, in registration order
	collects []collectFunc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

// id renders the canonical registry key: name plus labels in the given
// order (call sites use fixed label orders, so no sorting is needed),
// each value escaped as the text format requires.
func id(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	n := len(name) + 2
	for _, l := range labels {
		n += len(l.Key) + len(l.Value) + 4
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper escapes a label value's backslash, double quote and
// newline as the text format requires; a value with none is returned as
// it is.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

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
// consistency; a new histogram takes bounds.
func (r *Registry) lookup(name string, kind string, bounds []float64, kv []string) (*metric, error) {
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
	m := &metric{key: key, name: name, labels: labels, kind: kind}
	if kind == typeHistogram {
		if m.h, err = newHistogram(bounds); err != nil {
			return nil, err
		}
	} else {
		m.c = &Counter{}
	}
	r.metrics[key] = m
	r.list = append(r.list, m)
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
	m, err := r.lookup(name, typeCounter, nil, labelPairs)
	if err != nil {
		panic(err)
	}
	return m.c
}

// Histogram returns the histogram registered under name+labels with the
// given bucket upper bounds, creating it on first use (later calls keep
// the first bounds). Panics and nil behavior mirror Counter, plus a
// panic on empty or non-increasing bounds at creation.
func (r *Registry) Histogram(name string, bounds []float64, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	m, err := r.lookup(name, typeHistogram, bounds, labelPairs)
	if err != nil {
		panic(err)
	}
	return m.h
}

// Collect registers fn as owner's collect function: every snapshot calls
// it once, after releasing the registry's lock, so fn may take its
// owner's locks and register metrics, and fn reports the series it reads
// through the Collector. A later Collect from the same owner replaces fn,
// and a nil fn removes it. owner must be comparable (a pointer, say).
// Series that several owners report under one key are summed. A nil
// registry ignores the call.
func (r *Registry) Collect(owner any, fn func(*Collector)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch i := slices.IndexFunc(r.collects, func(c collectFunc) bool { return c.owner == owner }); {
	case i < 0 && fn != nil:
		r.collects = append(r.collects, collectFunc{owner: owner, fn: fn})
	case i >= 0 && fn == nil:
		r.collects = slices.Delete(r.collects, i, i+1)
	case i >= 0:
		r.collects[i].fn = fn
	}
}

// Collector receives the series collect functions report during one
// snapshot: snaps[i] is the series under registry key keys[i].
type Collector struct {
	keys  []string
	snaps []MetricSnapshot
}

// Counter reports v as the count of the counter under name and the
// alternating key,value label pairs. It panics on an invalid name or odd
// label pairs, like Registry.Counter.
func (c *Collector) Counter(name string, v float64, labelPairs ...string) {
	c.add(name, typeCounter, v, labelPairs)
}

// Gauge reports v as the level of the gauge under name+labels. Panics
// mirror Counter.
func (c *Collector) Gauge(name string, v float64, labelPairs ...string) {
	c.add(name, typeGauge, v, labelPairs)
}

func (c *Collector) add(name string, kind string, v float64, kv []string) {
	labels, err := pairsToLabels(name, kv)
	if err != nil {
		panic(err)
	}
	c.keys = append(c.keys, id(name, labels))
	c.snaps = append(c.snaps, MetricSnapshot{Name: name, Labels: labels, Type: kind, Value: v})
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

// snapshot reads the instrument's current state.
func (m *metric) snapshot() MetricSnapshot {
	s := MetricSnapshot{
		Name:   m.name,
		Labels: slices.Clone(m.labels),
		Type:   m.kind,
	}
	if m.kind == typeCounter {
		s.Value = float64(m.c.Value())
		return s
	}
	h := m.h
	s.Count = h.Count()
	s.Sum = h.Sum()
	s.Buckets = make([]Bucket, 0, len(h.bounds)+1)
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		s.Buckets = append(s.Buckets, Bucket{UpperBound: b, Count: cum})
	}
	cum += h.counts[len(h.bounds)].Load()
	s.Buckets = append(s.Buckets, Bucket{UpperBound: math.Inf(1), Count: cum})
	return s
}

// Snapshot returns every series' current state, sorted by canonical key:
// the registered instruments and what each collect function reports,
// with the values of equal keys summed. The result is caller-owned;
// concurrent updates during the snapshot may be partially visible per
// metric but never corrupt it. The registry's lock is held only to list
// the instruments and collect functions. It panics when two series
// under one key differ in kind, or are histograms.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := slices.Clone(r.list)
	collects := slices.Clone(r.collects)
	r.mu.Unlock()
	c := &Collector{keys: make([]string, 0, len(ms)), snaps: make([]MetricSnapshot, 0, len(ms))}
	for _, m := range ms {
		c.keys = append(c.keys, m.key)
		c.snaps = append(c.snaps, m.snapshot())
	}
	for _, cf := range collects {
		cf.fn(c)
	}
	// Sort positions, not the snapshots; equal keys stay in report order,
	// so they sum in collect-function order.
	order := make([]int, len(c.keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Or(strings.Compare(c.keys[a], c.keys[b]), a-b) })
	out := make([]MetricSnapshot, 0, len(order))
	for i, at := range order {
		if i == 0 || c.keys[at] != c.keys[order[i-1]] {
			out = append(out, c.snaps[at])
			continue
		}
		last, s := &out[len(out)-1], c.snaps[at]
		if last.Type != s.Type || last.Type == typeHistogram {
			panic(fmt.Errorf("obs: metric %q reported as a %s and as a %s", c.keys[at], last.Type, s.Type))
		}
		last.Value += s.Value
	}
	return out
}
