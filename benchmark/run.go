package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric of the catalogue.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd is the end-to-end catalogue; BENCHMARK.json repeats it and
// TestBenchmarkJSONMatchesCatalogue keeps the two equal. failed_share is
// not in it: the run reports failed and attempted as whole numbers next
// to the metrics, and a metric that is always 0 has no relative bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"mods_per_s", "mods/s", "higher", 0.20},
	{"step_p50_us", "us", "lower", 0.25},
	{"publish_p50_us", "us/mod", "lower", 0.25},
	{"refresh_p50_us", "us", "lower", 0.25},
	{"refresh_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_mod", "us", "lower", 0.25},
	{"heap_live_mb", "MiB", "lower", 0.10},
	{"allocs_per_mod", "count", "lower", 0.03},
	{"model_cost_per_mod", "units", "lower", 0.01},
}

// segment is the raw measurement of one timed segment.
type segment struct {
	wallNS, cpuNS int64
	mallocs       uint64
	mods          int
	stepUS        []float64 // whole step: previous EndStep return to this one's
	publishUS     []float64 // publish phase ÷ mods in the step
	refreshUS     []float64 // EndStep, on steps that delivered a notification
	refreshStep   []int     // index into stepUS of each refreshUS sample
	// kernelNS[w] is the reference kernel's time just before window w of
	// calibEvery steps; the last entry follows the last step.
	kernelNS []float64
}

// driveStats is everything the driver loop observes.
type driveStats struct {
	segs      []segment
	modelCost float64 // Σ TotalCost growth over the timed phase
	timedMods int

	// Counted from the returned notifications over the timed phase.
	notifications, rows int64
	qosMaxRatio         float64
	// Sharded only, sampled before each EndStep of a traced run.
	queueDepthMax int
	// traceFrom is the index of the first span of the timed phase and
	// counters0 the broker counters at that point (traced runs only).
	traceFrom int
	counters0 map[string]float64
}

func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func (in *instance) totalCost() (float64, error) {
	sum := 0.0
	for _, v := range in.views {
		c, err := in.b.TotalCost(v.name)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// step publishes one step's modifications and closes the step. It takes
// the two timestamps the end-to-end metrics rest on: after the last
// publish and after EndStep. On a traced instance it also records a span
// around every call into the broker.
func (in *instance) step(evs []event, a *account, ds *driveStats) (afterPublish, afterEndStep time.Time, notified bool) {
	tr := in.tr
	var stepID, stepPrev int32
	if tr != nil {
		tr.step.Add(1)
		stepID, stepPrev = tr.enter(spanStep)
	}
	for _, ev := range evs {
		if tr != nil {
			id, prev := tr.enter(spanPublish)
			a.call("publish", in.b.Publish(ev.table, ev.mod))
			tr.leave(id, prev)
			continue
		}
		a.call("publish", in.b.Publish(ev.table, ev.mod))
	}
	afterPublish = time.Now()
	if tr != nil && in.sharded != nil {
		for _, st := range in.sharded.ShardStats() {
			if st.QueueDepth > ds.queueDepthMax {
				ds.queueDepthMax = st.QueueDepth
			}
		}
	}
	var endID, endPrev int32
	if tr != nil {
		endID, endPrev = tr.enter(spanEndStep)
	}
	notes, err := in.b.EndStep()
	if tr != nil {
		tr.leave(endID, endPrev)
	}
	afterEndStep = time.Now()
	a.call("endstep", err)
	for _, n := range notes {
		qos := in.qos[n.Subscription]
		a.notification(n, qos)
		ds.notifications++
		ds.rows += int64(len(n.Rows))
		if r := n.RefreshCost / qos; r > ds.qosMaxRatio {
			ds.qosMaxRatio = r
		}
	}
	if tr != nil {
		tr.leave(stepID, stepPrev)
	}
	return afterPublish, afterEndStep, len(notes) > 0
}

// drive runs the warm-up and then the timed segments. The stream of a
// segment is generated before the segment's clock starts and dropped
// after it, so memory holds one segment of input at a time.
func (in *instance) drive(sz sizing, a *account) (*driveStats, error) {
	in.finalStep = sz.warmup + sz.timedSteps() - 1
	ds := &driveStats{}
	var warm account
	for _, evs := range in.gen.steps(sz.warmup) {
		in.step(evs, &warm, ds)
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("%s: warm-up failed: %s", in.w.name, warm.firstFailure)
	}
	*ds = driveStats{}
	if in.tr != nil {
		ds.traceFrom = len(in.tr.recorded())
		for _, p := range in.policies {
			p.reset()
		}
		for _, f := range in.files {
			f.reset()
		}
		ds.counters0 = in.counters()
	}
	cost0, err := in.totalCost()
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	for s := 0; s < sz.segments; s++ {
		stream := in.gen.steps(sz.segSteps)
		seg := segment{
			stepUS:    make([]float64, 0, sz.segSteps),
			publishUS: make([]float64, 0, sz.segSteps),
			refreshUS: make([]float64, 0, sz.segSteps),
		}
		// Every segment starts from a collected heap, so a segment's GC
		// work is its own.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		mallocs0, cpu0 := ms.Mallocs, cpuNS()
		prev := time.Now()
		for i, evs := range stream {
			if i%calibEvery == 0 {
				seg.kernelNS = append(seg.kernelNS, kernel())
				prev = time.Now()
			}
			t1, t2, notified := in.step(evs, a, ds)
			if notified {
				seg.refreshUS = append(seg.refreshUS, float64(t2.Sub(t1))/1e3)
				seg.refreshStep = append(seg.refreshStep, i)
			}
			seg.stepUS = append(seg.stepUS, float64(t2.Sub(prev))/1e3)
			seg.publishUS = append(seg.publishUS, float64(t1.Sub(prev))/1e3/float64(len(evs)))
			seg.wallNS += int64(t2.Sub(prev))
			seg.mods += len(evs)
			prev = t2
		}
		seg.cpuNS = cpuNS() - cpu0
		seg.kernelNS = append(seg.kernelNS, kernel())
		for _, k := range seg.kernelNS {
			seg.cpuNS -= int64(k) // the kernel is single-threaded and never blocks
		}
		runtime.ReadMemStats(&ms)
		seg.mallocs = ms.Mallocs - mallocs0
		ds.timedMods += seg.mods
		ds.segs = append(ds.segs, seg)
	}
	cost1, err := in.totalCost()
	if err != nil {
		return nil, err
	}
	ds.modelCost = cost1 - cost0
	return ds, nil
}

// speed is the box-speed factor of step i's window: the mean of the
// reference kernel's times on either side of the window ÷ kernelRefNS.
// Above 1 the box ran slower than reference speed. Raw values use 1.
func (s *segment) speed(i int, normalise bool) float64 {
	if !normalise {
		return 1
	}
	w := i / calibEvery
	return (s.kernelNS[w] + s.kernelNS[w+1]) / 2 / kernelRefNS
}

// segmentSpeed is the factor a whole segment's CPU time is divided by:
// the interquartile mean of its kernel samples, which follows the box's
// speed without following the steal bursts CPU time does not include.
func (s *segment) segmentSpeed(normalise bool) float64 {
	if !normalise {
		return 1
	}
	xs := append([]float64(nil), s.kernelNS...)
	sort.Float64s(xs)
	mid := xs[len(xs)/4 : len(xs)-len(xs)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid)) / kernelRefNS
}

// segmentValues is one segment's end-to-end timings.
type segmentValues struct {
	modsPerS, stepP50, publishP50, refreshP50, refreshP99, cpuPerMod float64
}

func (s *segment) values(normalise bool) segmentValues {
	n := len(s.stepUS)
	step, publish := make([]float64, n), make([]float64, n)
	wallUS := 0.0
	for i := range step {
		f := s.speed(i, normalise)
		step[i], publish[i] = s.stepUS[i]/f, s.publishUS[i]/f
		wallUS += step[i]
	}
	refresh := make([]float64, len(s.refreshUS))
	for j, i := range s.refreshStep {
		refresh[j] = s.refreshUS[j] / s.speed(i, normalise)
	}
	return segmentValues{
		modsPerS:   float64(s.mods) / (wallUS / 1e6),
		stepP50:    quantile(step, 0.5),
		publishP50: quantile(publish, 0.5),
		refreshP50: quantile(refresh, 0.5),
		refreshP99: quantile(refresh, 0.99),
		cpuPerMod:  float64(s.cpuNS) / 1e3 / float64(s.mods) / s.segmentSpeed(normalise),
	}
}

// overSegments is the median across segments of one timing; vals holds
// each segment's values.
func overSegments(vals []segmentValues, f func(segmentValues) float64) float64 {
	xs := make([]float64, len(vals))
	for i, v := range vals {
		xs[i] = f(v)
	}
	return median(xs)
}

func (ds *driveStats) values(normalise bool) []segmentValues {
	vals := make([]segmentValues, len(ds.segs))
	for i := range ds.segs {
		vals[i] = ds.segs[i].values(normalise)
	}
	return vals
}

// modsPerSecond is the run's throughput at reference speed.
func (ds *driveStats) modsPerSecond() float64 {
	return overSegments(ds.values(true), func(v segmentValues) float64 { return v.modsPerS })
}

func (ds *driveStats) refreshSamples() int {
	n := 0
	for i := range ds.segs {
		n += len(ds.segs[i].refreshUS)
	}
	return n
}

// heapLiveMiB is HeapAlloc after a forced collection.
func heapLiveMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// endToEndMetrics turns a drive into the end-to-end catalogue. Timings
// are medians (or p99) per segment, then the median across segments, so
// one disturbed segment does not move a run's number. normalise selects
// reference-speed values (the reported ones) or raw ones.
func endToEndMetrics(ds *driveStats, setupS, heapMiB float64, normalise bool) map[string]metric {
	mallocs := make([]float64, len(ds.segs))
	for i, s := range ds.segs {
		mallocs[i] = float64(s.mallocs) / float64(s.mods)
	}
	sv := ds.values(normalise)
	vals := map[string]float64{
		"setup_s":            setupS,
		"mods_per_s":         overSegments(sv, func(v segmentValues) float64 { return v.modsPerS }),
		"step_p50_us":        overSegments(sv, func(v segmentValues) float64 { return v.stepP50 }),
		"publish_p50_us":     overSegments(sv, func(v segmentValues) float64 { return v.publishP50 }),
		"refresh_p50_us":     overSegments(sv, func(v segmentValues) float64 { return v.refreshP50 }),
		"refresh_p99_us":     overSegments(sv, func(v segmentValues) float64 { return v.refreshP99 }),
		"cpu_us_per_mod":     overSegments(sv, func(v segmentValues) float64 { return v.cpuPerMod }),
		"allocs_per_mod":     median(mallocs),
		"heap_live_mb":       heapMiB,
		"model_cost_per_mod": ds.modelCost / float64(ds.timedMods),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, d := range endToEnd {
		out[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// runResult is one finished run of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Steps     stepCounts        `json:"steps"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failure   string            `json:"first_failure,omitempty"`
	Hash      string            `json:"content_hash"`
	Samples   int               `json:"refresh_samples"`
	Metrics   map[string]metric `json:"metrics"`
	// Raw holds the end-to-end metrics as the clock read them, before
	// they were brought to reference speed (see calib.go).
	Raw map[string]metric `json:"raw_metrics,omitempty"`
}

type stepCounts struct {
	Warmup   int `json:"warmup"`
	Segments int `json:"segments"`
	PerSeg   int `json:"per_segment"`
}

func (sz sizing) counts() stepCounts {
	return stepCounts{Warmup: sz.warmup, Segments: sz.segments, PerSeg: sz.segSteps}
}

// setupTimes is the median set-up time of a run, raw and at reference
// speed.
type setupTimes struct{ raw, normalised float64 }

func (t setupTimes) pick(normalise bool) float64 {
	if normalise {
		return t.normalised
	}
	return t.raw
}

// kernelSamples is how many reference-kernel runs separate one set-up
// from the next.
const kernelSamples = 5

// setupMedian sets the workload up sz.setups times and returns the last
// instance with the median set-up time. A set-up is too short for its
// own speed factor, so the whole set-up phase shares one: the median of
// the kernel runs before, between and after the set-ups.
func (w *workload) setupMedian(seed int64, sz sizing, tr *tracer) (*instance, setupTimes, error) {
	var in *instance
	var raw, kernels []float64
	sample := func() {
		for i := 0; i < kernelSamples; i++ {
			kernels = append(kernels, kernel())
		}
	}
	sample()
	for i := 0; i < sz.setups; i++ {
		if in != nil {
			in.close()
			in = nil
		}
		runtime.GC()
		start := time.Now()
		var err error
		in, err = w.setup(seed, sz, tr)
		if err != nil {
			return nil, setupTimes{}, err
		}
		raw = append(raw, time.Since(start).Seconds())
		sample()
	}
	t := median(raw)
	return in, setupTimes{raw: t, normalised: t / (median(kernels) / kernelRefNS)}, nil
}

// measure drives a set-up instance and verifies it: the untraced run
// after set-up.
func (in *instance) measure(seed int64, sz sizing, setup setupTimes) (*runResult, error) {
	var a account
	ds, err := in.drive(sz, &a)
	if err != nil {
		return nil, err
	}
	heap := heapLiveMiB()
	hash, err := in.verify(&a)
	if err != nil {
		return nil, err
	}
	return &runResult{
		Workload: in.w.name, Seed: seed, Steps: sz.counts(),
		Attempted: a.attempted, Failed: a.failed, Failure: a.firstFailure,
		Hash: hash, Samples: ds.refreshSamples(),
		Metrics: endToEndMetrics(ds, setup.pick(true), heap, true),
		Raw:     endToEndMetrics(ds, setup.pick(false), heap, false),
	}, nil
}

// runEndToEnd is the untraced run: set up, drive, verify.
func (w *workload) runEndToEnd(seed int64, sz sizing) (*runResult, error) {
	in, setup, err := w.setupMedian(seed, sz, nil)
	if err != nil {
		return nil, err
	}
	defer in.close()
	return in.measure(seed, sz, setup)
}

// failedShare is failed ÷ attempted.
func (r *runResult) failedShare() float64 {
	return float64(r.Failed) / float64(r.Attempted)
}

// exitCode is the process status a run earns: any failed operation is a
// non-zero exit.
func (r *runResult) exitCode() int {
	if r.Failed > 0 {
		return 1
	}
	return 0
}
