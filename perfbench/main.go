// Command perfbench is the repository's benchmark. It runs one named
// workload of the paper's pipeline in-process for a fixed time, checks the
// outputs against committed golden digests and seed-independent
// invariants, and prints its metrics: a table for people, then one JSON
// line for tools.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper|whatif --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// a traced segment (telemetry on, CPU profile, spans around every layer
// call) and an untraced one, and reports the per-layer metrics and the
// tracing overhead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"iophases/internal/sweep"
)

// A timed run sets its workload up at least minSetups times and goes on,
// up to maxSetups, until the set-ups have taken setupBudget; setup_s is the
// median. A quick set-up is so repeated often enough that a burst of load
// on the host does not move the median.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 3 * time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	golden   string
	record   bool
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names a metric and its unit. BENCHMARK.json at the repository
// root lists the same metrics in the same order (checked by a test).
type metricSpec struct{ name, unit string }

// endToEndMetrics are what a --trace 0 run reports, on every workload.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_heap_mb", "MB"},
	{"items_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var secs, trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&secs, "seconds", 60, "measured time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced segment and reports per-layer metrics")
	fs.StringVar(&o.golden, "golden", filepath.Join("perfbench", "golden.json"), "golden digest file")
	fs.BoolVar(&o.record, "record-golden", false, "rewrite this workload's golden digests (seed "+fmt.Sprint(goldenSeed)+" only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.seconds, o.traced = float64(secs), trace == 1
	if _, ok := workloads[o.workload]; !ok || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.record && o.seed != goldenSeed {
		fmt.Fprintf(stderr, "perfbench: golden digests are recorded for seed %d only\n", goldenSeed)
		return 2
	}

	// Stay within the machine: GOMAXPROCS, the sweep pool and the whatif
	// callers are all at most the CPU count, and at most two.
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	sweep.SetConcurrency(procs)

	golden, err := loadGolden(o.golden, o.record)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{opts: o, dir: dir, procs: procs, golden: golden}
	w := workloads[o.workload](e)
	defer w.close()

	var rep report
	if o.traced {
		rep, err = tracedRun(e, w)
	} else {
		rep, err = timedRun(e, w)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	specs := endToEndMetrics
	if o.traced {
		specs = perLayerMetrics
	}
	if err := checkMetrics(rep.metrics, specs); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := printReport(stdout, o, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if !rep.correct() {
		for _, f := range rep.failures {
			fmt.Fprintf(stderr, "perfbench: %s: FAIL %s\n", o.workload, f)
		}
		return 1
	}
	if o.record {
		if err := w.record(golden); err != nil {
			fmt.Fprintf(stderr, "perfbench: recording golden digests: %v\n", err)
			return 1
		}
		if err := golden.save(o.golden); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	return 0
}

// checkMetrics reports a metric set that is not exactly specs, or a unit
// that differs from its declaration.
func checkMetrics(got map[string]metric, specs []metricSpec) error {
	for _, s := range specs {
		m, ok := got[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		if m.Unit != s.unit {
			return fmt.Errorf("metric %s has unit %q, declared %q", s.name, m.Unit, s.unit)
		}
	}
	if len(got) != len(specs) {
		return fmt.Errorf("%d metrics measured, %d declared", len(got), len(specs))
	}
	return nil
}

// report is everything one run prints.
type report struct {
	attempted int64
	failures  []string
	metrics   map[string]metric // the JSON metrics
	lines     []string          // extra human-readable lines for the table
}

func (r report) correct() bool { return len(r.failures) == 0 }

// printReport prints the table, then the JSON result line last.
func printReport(w io.Writer, o options, r report) error {
	mode := "end-to-end"
	if o.traced {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "perfbench %s: seed %d, %.0f s, %s metrics\n", o.workload, o.seed, o.seconds, mode)
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", name, m.Value, m.Unit)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(len(r.failures)) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-28s %16.6g ratio (%d failed of %d attempted)\n", "error_rate", errRate, len(r.failures), r.attempted)
	for _, l := range r.lines {
		fmt.Fprintf(w, "  %s\n", l)
	}
	raw, err := json.Marshal(result{
		Correct:   r.correct(),
		Attempted: r.attempted,
		Failed:    int64(len(r.failures)),
		Metrics:   r.metrics,
	})
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
