package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"abivm/internal/core"
	"abivm/internal/durable"
	"abivm/internal/policy"
)

// Span names. A span is recorded by the benchmark around a call into a
// layer's public API; nothing inside the program is instrumented.
const (
	spanStep = iota
	spanPublish
	spanEndStep
	spanPolicyAct
	spanFSRead
	spanFSWrite
	spanFSAppend
	spanFSRename
	spanFSRemove
	spanFSList
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"step", "pubsub.publish", "pubsub.endstep", "policy.act",
	"durable.fs.read", "durable.fs.write", "durable.fs.append",
	"durable.fs.rename", "durable.fs.remove", "durable.fs.list",
}

// span is one timed call: which layer, when, caused by which span, in
// which broker step (-1 outside the stepped run).
type span struct {
	name       int32
	parent     int32 // index of the causing span, -1 for a root
	step       int32
	start, end int64 // ns since the tracer's origin
}

// tracer keeps spans in memory until the run ends. Policy and FS
// decorators run on shard worker goroutines, so opening and closing
// spans is locked; cur is the span the driver is inside right now, which
// decorators adopt as their parent.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	cur    atomic.Int32
	step   atomic.Int32
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now()}
	t.cur.Store(-1)
	t.step.Store(-1)
	return t
}

func (t *tracer) open(name int, parent int32) int32 {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: int32(name), parent: parent, step: t.step.Load(), start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) close(id int32) {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// enter opens a driver-side span and makes it the current parent;
// leave closes it and restores the previous one.
func (t *tracer) enter(name int) (id, prev int32) {
	prev = t.cur.Load()
	id = t.open(name, prev)
	t.cur.Store(id)
	return id, prev
}

func (t *tracer) leave(id, prev int32) {
	t.close(id)
	t.cur.Store(prev)
}

// tracedPolicy times every Act call of the policy it wraps and sees the
// action the policy returned: how often it drains and how many
// modifications each drain batches, per side of the join.
type tracedPolicy struct {
	inner policy.Policy
	tr    *tracer
	tabs  []string // base table per alias index

	factDrains, factMods int64
	dimDrains, dimMods   int64
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }
func (p *tracedPolicy) Reset(n int)  { p.inner.Reset(n) }

func (p *tracedPolicy) Act(t int, d, pre core.Vector, refresh bool) core.Vector {
	id := p.tr.open(spanPolicyAct, p.tr.cur.Load())
	act := p.inner.Act(t, d, pre, refresh)
	p.tr.close(id)
	for i, k := range act {
		if k == 0 {
			continue
		}
		if p.tabs[i] == tblSales {
			p.factDrains++
			p.factMods += int64(k)
		} else {
			p.dimDrains++
			p.dimMods += int64(k)
		}
	}
	return act
}

// tracedFS times every call a durable.Store makes into its file layer
// and counts the bytes handed to it. A store is used by one goroutine at
// a time, so the counter is plain.
type tracedFS struct {
	inner durable.FS
	tr    *tracer
	bytes int64
}

func (f *tracedFS) timed(name int, n int, call func() error) error {
	id := f.tr.open(name, f.tr.cur.Load())
	err := call()
	f.tr.close(id)
	f.bytes += int64(n)
	return err
}

func (f *tracedFS) ReadFile(name string) (data []byte, err error) {
	err = f.timed(spanFSRead, 0, func() error { data, err = f.inner.ReadFile(name); return err })
	return data, err
}

func (f *tracedFS) WriteFile(name string, data []byte) error {
	return f.timed(spanFSWrite, len(data), func() error { return f.inner.WriteFile(name, data) })
}

func (f *tracedFS) AppendFile(name string, data []byte) error {
	return f.timed(spanFSAppend, len(data), func() error { return f.inner.AppendFile(name, data) })
}

func (f *tracedFS) Rename(oldName, newName string) error {
	return f.timed(spanFSRename, 0, func() error { return f.inner.Rename(oldName, newName) })
}

func (f *tracedFS) Remove(name string) error {
	return f.timed(spanFSRemove, 0, func() error { return f.inner.Remove(name) })
}

func (f *tracedFS) List() (names []string, err error) {
	err = f.timed(spanFSList, 0, func() error { names, err = f.inner.List(); return err })
	return names, err
}

// reset zeroes a decorator's counters; the driver calls it between
// steps, when no worker is inside the decorator.
func (p *tracedPolicy) reset() {
	p.factDrains, p.factMods, p.dimDrains, p.dimMods = 0, 0, 0, 0
}
func (f *tracedFS) reset() { f.bytes = 0 }

// spanTotals is what the per-layer metrics need from the spans of the
// timed phase: call count and total time per span name, and EndStep's
// self time.
type spanTotals struct {
	count, ns     [numSpanNames]int64
	endStepSelfNS int64
}

// fs sums the file-layer span names.
func (t spanTotals) fs() (count, ns int64) {
	for name := spanFSRead; name <= spanFSList; name++ {
		count += t.count[name]
		ns += t.ns[name]
	}
	return count, ns
}

// recorded returns the spans so far. The driver reads them between steps
// and after the run, when no decorator is inside the tracer.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// summarize walks the spans opened at or after index from. A span's
// self time is its duration minus the part of it its direct children
// cover; children of one EndStep may overlap (shard workers run in
// parallel), so coverage is the union of their intervals.
func (t *tracer) summarize(from int) spanTotals {
	var tot spanTotals
	spans := t.recorded()
	var endSteps []int32
	children := map[int32][][2]int64{}
	for i := from; i < len(spans); i++ {
		s := spans[i]
		tot.count[s.name]++
		tot.ns[s.name] += s.end - s.start
		if s.name == spanEndStep {
			endSteps = append(endSteps, int32(i))
		}
		if s.parent >= 0 && spans[s.parent].name == spanEndStep {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	tot.endStepSelfNS = tot.ns[spanEndStep]
	for _, id := range endSteps {
		iv := children[id]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		hi := int64(-1)
		for _, c := range iv {
			lo := c[0]
			if lo < hi {
				lo = hi
			}
			if c[1] > lo {
				tot.endStepSelfNS -= c[1] - lo
				hi = c[1]
			}
		}
	}
	return tot
}

// maxTraceSpans bounds the trace file; a run keeps every span in memory
// for its metrics and writes the first maxTraceSpans of them.
const maxTraceSpans = 200000

// writeFile writes the spans as compact JSON: a name table and one
// [name, start_ns, end_ns, parent, step] row per span.
func (t *tracer) writeFile(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	spans := t.recorded()
	n := len(spans)
	if n > maxTraceSpans {
		n = maxTraceSpans
	}
	fmt.Fprintf(w, `{"workload":%q,"seed":%d,"spans_total":%d,"spans_written":%d,"columns":["name","start_ns","end_ns","parent","step"],"names":[`,
		workload, seed, len(spans), n)
	for i, name := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", name)
	}
	w.WriteString(`],"spans":[`)
	for i, s := range spans[:n] {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n[%d,%d,%d,%d,%d]", s.name, s.start, s.end, s.parent, s.step)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		//lint:ignore errdrop the flush error is the failure being reported
		f.Close()
		return err
	}
	return f.Close()
}
