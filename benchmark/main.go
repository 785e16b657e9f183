// Command benchmark is the steady-state broker benchmark: seeded,
// bounded-size workloads driven closed-loop through the pub/sub broker,
// end-to-end metrics from an untraced run, per-layer metrics from a
// traced run of the same inputs, and a recompute-from-scratch oracle over
// every final view. README.md in this directory is the metric catalogue.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//	benchmark [-runs N] [-out FILE]                           every workload, both runs, one record
//	benchmark -quick                                          every workload at toy size, checks on
//	benchmark compare A.json B.json                           row per (workload, metric), exit 1 on regression
//	benchmark manifest                                        BENCHMARK.json as the catalogue in this source declares it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 18

func nproc() int { return runtime.NumCPU() }

// environment is recorded with every result so two records can be told
// apart before they are compared.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	GOGC       string `json:"gogc"`
	Seconds    int    `json:"seconds"`
	Quick      bool   `json:"quick"`
	Started    string `json:"started"`
}

func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func currentEnvironment(seconds int, quick bool) (environment, error) {
	env := environment{
		NProc: nproc(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), GOGC: os.Getenv("GOGC"), Seconds: seconds, Quick: quick,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	if env.GOGC == "" {
		env.GOGC = "100"
	}
	return env, checkProcs(env.GOMAXPROCS, env.NProc)
}

// checkProcs refuses a run that claims more parallelism than the box has.
func checkProcs(gomaxprocs, nproc int) error {
	if gomaxprocs > nproc {
		return fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d: the box cannot exhibit that parallelism", gomaxprocs, nproc)
	}
	return nil
}

// record is what a whole-benchmark invocation writes and compare reads.
type record struct {
	Env  environment  `json:"env"`
	Runs []*runResult `json:"runs"`
}

// outDir is benchmark/out when run from the repository root and out when
// run from inside the benchmark directory.
func outDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func printRun(r *runResult, defs []metricDef) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Printf("== %s seed=%d %s: warmup=%d steps=%dx%d attempted=%d failed=%d failed_share=%g refresh_samples=%d hash=%s\n",
		r.Workload, r.Seed, kind, r.Steps.Warmup, r.Steps.Segments, r.Steps.PerSeg, r.Attempted, r.Failed, r.failedShare(), r.Samples, r.Hash)
	if r.Failure != "" {
		fmt.Printf("   first failure: %s\n", r.Failure)
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Printf("   %-34s %16.4f %-7s", d.Name, m.Value, m.Unit)
		if raw, ok := r.Raw[d.Name]; ok && raw.Value != m.Value {
			fmt.Printf(" (raw %.4f)", raw.Value)
		}
		fmt.Println()
	}
}

// driverLine is the one JSON object the driver contract wants last on
// standard output.
func driverLine(r *runResult) string {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings cannot fail to marshal
	}
	return string(b)
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// runOne is one (workload, trace) run at the given sizing.
func runOne(w *workload, seed int64, sz sizing, trace bool, dir string) (*runResult, error) {
	if !trace {
		return w.runEndToEnd(seed, sz)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return w.runTraced(seed, sz, filepath.Join(dir, "tmp"), filepath.Join(dir, "trace-"+w.name+".json"))
}

// checkHashes enforces that the three fanout workloads, which see
// byte-identical inputs and views, end with byte-identical contents.
func checkHashes(runs []*runResult) error {
	ref := map[bool]string{}
	for _, r := range runs {
		switch r.Workload {
		case "fanout-classic":
			ref[r.Trace] = r.Hash
		case "fanout-shared", "sharded-2":
			if want, ok := ref[r.Trace]; ok && r.Hash != want {
				return fmt.Errorf("%s content hash %s differs from fanout-classic's %s", r.Workload, r.Hash, want)
			}
		}
	}
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "manifest" {
		fmt.Print(manifest())
		return
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload (default: all)")
	seed := fs.Int64("seed", 1, "workload seed: same seed, same inputs")
	seconds := fs.Int("seconds", defaultSeconds, "run length; fixes the step count (steps = seconds x the committed rate)")
	trace := fs.Int("trace", 0, "with -workload: 0 = end-to-end run, 1 = traced per-layer run")
	quick := fs.Bool("quick", false, "all workloads at toy size, checks on")
	runs := fs.Int("runs", 1, "without -workload: end-to-end runs per workload")
	out := fs.String("out", "", "without -workload: result file (default <out>/result.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *seconds > 60 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: need 1 <= seconds <= 60, runs >= 1, trace 0 or 1")
		return 2
	}
	env, err := currentEnvironment(*seconds, *quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Printf("nproc=%d GOMAXPROCS=%d go=%s commit=%s GOGC=%s seconds=%d quick=%v closed-loop, 1 driver goroutine, %d mods/step\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, env.GOGC, env.Seconds, env.Quick, modsPerStep)
	dir := outDir()
	sz := fullSizing(*seconds)
	if *quick {
		sz = quickSizing()
	} else if sz.segSteps < minSegSteps {
		fmt.Printf("note: %d-step segments: p99 has fewer than ten samples beyond it; use --seconds >= %d\n",
			sz.segSteps, 3*minSegSteps/stepsPerSecond)
	}

	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		r, err := runOne(w, *seed, sz, *trace == 1, dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printRun(r, defsFor(r.Trace))
		fmt.Println(driverLine(r))
		return r.exitCode()
	}

	rec := record{Env: env}
	failed := false
	for _, w := range workloads {
		for i := 0; i < *runs+1; i++ {
			traced := i == *runs
			r, err := runOne(w, *seed, sz, traced, dir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			printRun(r, defsFor(traced))
			failed = failed || r.exitCode() != 0
			rec.Runs = append(rec.Runs, r)
		}
	}
	if err := checkHashes(rec.Runs); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		failed = true
	}
	if !*quick || *out != "" {
		path := *out
		if path == "" {
			path = filepath.Join(dir, "result.json")
		}
		if err := writeRecord(path, &rec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println("wrote", path)
	}
	if failed {
		fmt.Println("FAILED")
		return 1
	}
	fmt.Println("ok: every view equals the recompute oracle, failed_share 0, fanout hashes agree")
	return 0
}

func writeRecord(path string, rec *record) error {
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// manifest renders BENCHMARK.json from the catalogue in this source, so
// the file the driver reads and the metrics the program prints cannot
// drift apart (TestManifestMatchesBenchmarkJSON).
func manifest() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers cannot fail to marshal
	}
	return string(b) + "\n"
}
