// Command perfbench is Tero's benchmark. It runs one named workload for a
// fixed time, checks the program's outputs, and prints one JSON line with
// every metric by name and unit, plus how many operations it attempted and
// how many failed:
//
//	perfbench --workload ingest --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of a timed run; with
// --trace 1 it runs the same workload with the benchmark's own spans around
// the program's public calls and reports the per-layer metrics.
//
//	perfbench compare PARENT.jsonl CHANGE.jsonl
//
// compares two sets of results (see compare.go). README.md describes the
// workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"tero/internal/obs"
)

// sizes is the make-up of every workload's inputs. defaultSizes is what
// the benchmark measures; its tests run tinySizes.
type sizes struct {
	// Passes of the ingest and dist world replay ReplayHours of it from
	// ReplayFromHour on, with ReplayThumbs thumbnail windows in that time.
	// Readings first served in a pass's first WarmupTicks ticks, while the
	// pipeline adopts every streamer already live, are left out of the
	// freshness figures.
	ReplayThumbs, ReplayFromHour, ReplayHours, WarmupTicks int
	// DistCDNDelay is the replay platform's per-fetch delay on dist.
	DistCDNDelay time.Duration
	// The analyze history holds AnalyzeReadings readings over AnalyzeDays.
	AnalyzeReadings, AnalyzeDays int
	// Query index: groups, readings per group, compare pairs, key skew.
	QueryGroups, QueryReadings, QueryPairs int
	QuerySkew                              float64
	// QuerySwapEvery is the swap cadence during reads; QueryRate is the
	// open-loop offered rate (requests per second).
	QuerySwapEvery time.Duration
	QueryRate      float64
	// SetupReps is how many times set-up runs; setup_s is the median.
	SetupReps int
}

var defaultSizes = sizes{
	ReplayThumbs: 1500, ReplayFromHour: 18, ReplayHours: 3, WarmupTicks: 15,
	DistCDNDelay:    2 * time.Millisecond,
	AnalyzeReadings: 16000, AnalyzeDays: 1,
	QueryGroups: 1500, QueryReadings: 200, QueryPairs: 4000, QuerySkew: 1.1,
	QuerySwapEvery: 250 * time.Millisecond, QueryRate: 2000,
	SetupReps: 3,
}

var tinySizes = sizes{
	ReplayThumbs: 80, ReplayFromHour: 12, ReplayHours: 8, WarmupTicks: 5,
	DistCDNDelay:    time.Millisecond,
	AnalyzeReadings: 600, AnalyzeDays: 2,
	QueryGroups: 40, QueryReadings: 20, QueryPairs: 200, QuerySkew: 1.1,
	QuerySwapEvery: 50 * time.Millisecond, QueryRate: 500,
	SetupReps: 1,
}

// opts is one run's settings.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produced.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	failures          []string
}

func (r *report) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) fail(format string, args ...any) {
	if len(r.failures) < 50 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts) (*report, error){
	"ingest":  runIngest,
	"analyze": runAnalyze,
	"query":   runQuery,
	"dist":    runDist,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line and runs the workload it names.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: ingest, analyze, query or dist")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := opts{workload: *workload, seed: *seed, seconds: *seconds, trace: *traced == 1, sz: defaultSizes}
	return runOpts(o, stdout, stderr)
}

// runOpts runs one workload with the given settings, prints its result
// line and returns the exit code.
func runOpts(o opts, stdout, stderr io.Writer) int {
	runner, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	obs.SetLogLevel(obs.LevelOff)
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(nproc)
	}

	rep, err := runner(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	names := perLayerNames
	if !o.trace {
		names = endToEndNames
	}
	for _, name := range names {
		if _, ok := rep.metrics[name]; !ok {
			rep.fail("metric %s not measured", name)
		}
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", o.workload, f)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.failures) == 0, rep.attempted, rep.failed, make(map[string]metric)}
	for _, name := range names {
		if m, ok := rep.metrics[name]; ok {
			out.Metrics[name] = m
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// heapMB forces a collection and returns the live heap in MB. A workload
// reports live_heap_mb as the heap with Tero's state held at the end of the
// timed part minus the heap once that state is dropped, so the
// benchmark's own inputs (the replay recording, generated readings) are
// excluded.
func heapMB() float64 {
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled scratch buffers do not blur
	// the number.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timeSetups runs set-up reps times and returns the last environment and
// the median set-up time; earlier environments are closed.
func timeSetups[E any](reps int, setup func() (E, error), closeEnv func(E)) (E, float64, error) {
	var env E
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			closeEnv(env)
		}
		start := time.Now()
		e, err := setup()
		if err != nil {
			var zero E
			return zero, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		env = e
	}
	sort.Float64s(secs)
	return env, median(secs), nil
}

// endToEndNames are the metrics of a timed run, perLayerNames those of a
// traced run, in BENCHMARK.json's order.
var endToEndNames = []string{"setup_s", "live_heap_mb", "throughput_per_s", "latency_p50_ms", "latency_p95_ms"}

var perLayerNames []string
