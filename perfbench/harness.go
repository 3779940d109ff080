package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"iophases/internal/obs"
	"iophases/internal/simcache"
	"iophases/internal/sweep"
)

// env is what a workload sees of the run.
type env struct {
	opts   options
	dir    string // scratch directory inside the checkout, removed at exit
	procs  int
	golden *goldenFile
	tr     *tracer // nil outside the traced segment
}

// workload is one benchmark workload. A pass is one unit of the work a
// user waits for; callers() closed-loop callers run passes concurrently.
type workload interface {
	// setup builds the workload's inputs from the seed, from scratch.
	setup() error
	callers() int
	// pass runs caller c's k-th pass.
	pass(c, k int) passResult
	// tracedPasses is the fixed number of passes per caller of the traced
	// segment, or 0 to run it for half the measured time. A workload whose
	// callers share the replay cache returns a fixed count: its traced run
	// then takes the callers' passes in turn with a sweep pool of one, so
	// the simulations, their order and with them the evictions and counts
	// repeat exactly.
	tracedPasses() int
	// maxPasses caps the passes per caller of a whole run, traced and
	// untraced segments together, or is 0 for no cap. A workload whose
	// passes add state (whatif's callers add new bodies to the server's
	// caches) sets it, so that the state a run builds does not grow with
	// the speed of the program.
	maxPasses() int
	// verify runs the untimed end-of-run checks and returns failures.
	verify() []string
	// summary adds workload-specific figures of a measured window to the
	// printed table.
	summary(win window) []string
	// layerTimes reports per-layer figures the workload observed itself
	// over the traced segment (e.g. server-side latencies).
	layerTimes(passes int) map[string]metric
	// record stores this run's outputs as the golden digests.
	record(g *goldenFile) error
	close()
}

// passResult is what one pass did.
type passResult struct {
	items     int64    // work items completed (the items_per_s numerator)
	attempted int64    // operations attempted
	failures  []string // failed operations and output mismatches
	// latencies are the pass's request latencies in milliseconds, for a
	// workload whose callers make many requests per pass; nil means the
	// pass itself is the request.
	latencies []float64
}

// workloads maps names to constructors.
var workloads = map[string]func(*env) workload{
	"paper":  newPaper,
	"whatif": newWhatif,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// window is the outcome of running passes for a while.
type window struct {
	wall      time.Duration // first pass start to last pass end
	cpu       time.Duration // process user+system time over the window
	passWalls []float64     // seconds, one per pass
	latencies []float64     // milliseconds, one per request
	items     int64
	attempted int64
	failures  []string
	// passPeaks are the peak heap bytes of each pass: the largest
	// sample taken while it ran.
	passPeaks []float64
}

// runWindow runs passes on every caller until the time budget would be
// overrun or the caller reaches the workload's maxPasses, or, with
// fixed > 0, exactly fixed passes per caller. Each
// caller runs on its own goroutine; with serial, one goroutine runs the
// callers' passes in turn. A goroutine starts another round of passes
// only if its median round fits in the remaining time, and runs at least
// one. Caller c's passes are numbered from first[c], which is advanced past
// the passes run.
func runWindow(w workload, seconds float64, fixed int, first []int, serial bool) window {
	var (
		mu    sync.Mutex
		out   window
		wg    sync.WaitGroup
		spans [][2]time.Duration // each pass's start and end, since start
	)
	var lanes [][]int // the callers each goroutine drives, in turn
	for c := 0; c < w.callers(); c++ {
		if serial && c > 0 {
			lanes[0] = append(lanes[0], c)
		} else {
			lanes = append(lanes, []int{c})
		}
	}
	cpu0 := cpuTime()
	start := time.Now()
	heap := startHeapSampler(start)
	budget := time.Duration(seconds * float64(time.Second))
	for _, lane := range lanes {
		wg.Add(1)
		go func(lane []int) {
			defer wg.Done()
			var rounds []float64
			for k := 0; fixed == 0 || k < fixed; k++ {
				if fixed == 0 && k > 0 {
					est := time.Duration(median(rounds) * float64(time.Second))
					if time.Since(start)+est > budget {
						return
					}
				}
				round := time.Now()
				for _, c := range lane {
					if limit := w.maxPasses(); limit > 0 && first[c] >= limit {
						return
					}
					t0 := time.Now()
					r := w.pass(c, first[c])
					d := time.Since(t0).Seconds()
					from, to := t0.Sub(start), time.Since(start)
					first[c]++
					if r.latencies == nil {
						r.latencies = []float64{d * 1e3}
					}
					mu.Lock()
					out.passWalls = append(out.passWalls, d)
					spans = append(spans, [2]time.Duration{from, to})
					out.latencies = append(out.latencies, r.latencies...)
					out.items += r.items
					out.attempted += r.attempted
					out.failures = append(out.failures, r.failures...)
					mu.Unlock()
				}
				rounds = append(rounds, time.Since(round).Seconds())
			}
		}(lane)
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.cpu = cpuTime() - cpu0
	samples := heap.finish()
	for _, sp := range spans {
		out.passPeaks = append(out.passPeaks, float64(peakIn(samples, sp[0], sp[1])))
	}
	return out
}

// timedRun is a --trace 0 run: set up minSetups to maxSetups times, then
// measure.
func timedRun(e *env, w workload) (report, error) {
	var setups []float64
	for spent := time.Duration(0); len(setups) < minSetups || (len(setups) < maxSetups && spent < setupBudget); {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return report{}, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	win := runWindow(w, e.opts.seconds, 0, make([]int, w.callers()), false)
	failures := append(win.failures, w.verify()...)
	if len(win.passWalls) == 0 {
		return report{}, fmt.Errorf("no pass completed")
	}
	m := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"wall_s":         {median(win.passWalls), "s"},
		"cpu_s":          {win.cpu.Seconds() / float64(len(win.passWalls)), "s"},
		"peak_heap_mb":   {median(win.passPeaks) / (1 << 20), "MB"},
		"items_per_s":    {float64(win.items) / win.wall.Seconds(), "1/s"},
		"latency_p50_ms": {median(win.latencies), "ms"},
	}
	lines := []string{
		fmt.Sprintf("setup: %d set-ups, median %.4f s", len(setups), median(setups)),
		"pass wall: " + describe(summarize(win.passWalls), "s"),
		"request latency: " + describe(summarize(win.latencies), "ms"),
	}
	lines = append(lines, w.summary(win)...)
	return report{attempted: win.attempted, failures: failures, metrics: m, lines: lines}, nil
}

// describe renders a timing summary with its sample count.
func describe(s summary, unit string) string {
	if s.TailPct == 0 {
		return fmt.Sprintf("p50 %.6g %s, range %.6g..%.6g (n=%d; too few samples for a tail with %d beyond it)",
			s.P50, unit, s.Min, s.Max, s.N, minBeyond)
	}
	return fmt.Sprintf("p50 %.6g %s, p%g %.6g %s, range %.6g..%.6g (n=%d)", s.P50, unit, s.TailPct, s.Tail, unit, s.Min, s.Max, s.N)
}

// tracedRun is a --trace 1 run: telemetry on from the start, one set-up,
// a traced segment with a CPU profile and spans, then an untraced segment
// of the same work whose pass times give the tracing overhead.
func tracedRun(e *env, w workload) (report, error) {
	fixed := w.tracedPasses()
	serial, width := fixed > 0, e.procs
	if serial {
		width = 1
		sweep.SetConcurrency(width)
	}
	obs.SetEnabled(true)
	e.tr = newTracer()
	base := takeSnapshot()
	if err := w.setup(); err != nil {
		return report{}, fmt.Errorf("setup: %w", err)
	}
	afterSetup := takeSnapshot()
	setupSpans := e.tr.count()

	profPath := filepath.Join(e.dir, "cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return report{}, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return report{}, fmt.Errorf("cpu profile: %w", err)
	}
	next := make([]int, w.callers())
	traced := runWindow(w, e.opts.seconds/2, fixed, next, serial)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return report{}, fmt.Errorf("cpu profile: %w", err)
	}
	afterWindow := takeSnapshot()
	spans := e.tr
	e.tr = nil
	obs.SetEnabled(false)

	untraced := runWindow(w, e.opts.seconds/2, 0, next, serial)
	failures := append(traced.failures, untraced.failures...)
	failures = append(failures, w.verify()...)

	samples, err := readProfile(profPath)
	if err != nil {
		return report{}, err
	}
	passes := len(traced.passWalls)
	m := layerMetrics(layerInput{
		setup:      afterSetup.sub(base),
		window:     afterWindow.sub(afterSetup),
		gauges:     afterWindow.gauges,
		passes:     passes,
		windowCPU:  traced.cpu,
		windowWall: traced.wall,
		sweepWidth: width,
		samples:    samples,
		spans:      spans.totals(0, setupSpans),
		winSpans:   spans.totals(setupSpans, spans.count()),
	})
	for name, v := range w.layerTimes(passes) {
		m[name] = v
	}
	tMed, uMed := median(traced.passWalls), median(untraced.passWalls)
	m["tracing.overhead_s"] = metric{tMed - uMed, "s"}
	m["tracing.overhead_pct"] = metric{100 * (tMed - uMed) / uMed, "%"}
	m["tracing.passes"] = metric{float64(passes), "count"}
	lines := []string{
		"traced pass wall: " + describe(summarize(traced.passWalls), "s"),
		"untraced pass wall: " + describe(summarize(untraced.passWalls), "s"),
		"per-layer counts and times are one set-up plus one average traced pass; CPU shares are of the traced segment's profile",
	}
	lines = append(lines, w.summary(untraced)...)
	lines = append(lines, predictions(e.opts.workload, m)...)
	return report{
		attempted: traced.attempted + untraced.attempted,
		failures:  failures,
		metrics:   m,
		lines:     lines,
	}, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSample is the bytes of live and not-yet-swept heap objects at one
// moment, since the start of a window.
type heapSample struct {
	at    time.Duration
	bytes uint64
}

// heapSampler samples the heap every millisecond.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []heapSample
}

func startHeapSampler(start time.Time) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, heapSample{time.Since(start), s[0].Value.Uint64()})
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns its samples, oldest first.
func (h *heapSampler) finish() []heapSample {
	close(h.stop)
	<-h.done
	return h.samples
}

// peakIn returns the largest sample taken in [from, to], counting the last
// sample before from, which still held when the interval began. An interval
// before the first sample gets the first sample.
func peakIn(samples []heapSample, from, to time.Duration) uint64 {
	if len(samples) == 0 {
		return 0
	}
	i := sort.Search(len(samples), func(i int) bool { return samples[i].at > from })
	if i > 0 {
		i--
	}
	peak := samples[i].bytes
	for i++; i < len(samples) && samples[i].at <= to; i++ {
		peak = max(peak, samples[i].bytes)
	}
	return peak
}

// span is one timed call into a layer, recorded from the benchmark's side.
type span struct {
	layer      string
	start, end time.Duration // since the tracer started; end is -1 while open
}

// tracer keeps spans in memory. A nil tracer records nothing, so untraced
// runs pay one branch per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(layer string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{layer: layer, start: time.Since(t.t0), end: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].end = time.Since(t.t0)
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(layer string, fn func()) {
	id := t.begin(layer)
	fn()
	t.end(id)
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanTotal is the summed duration and number of one layer's spans.
type spanTotal struct {
	sec float64
	n   int
}

// totals sums the finished spans with index in [from, to) by layer.
func (t *tracer) totals(from, to int) map[string]spanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]spanTotal{}
	for _, s := range t.spans[from:to] {
		if s.end < 0 {
			continue
		}
		st := out[s.layer]
		st.sec += (s.end - s.start).Seconds()
		st.n++
		out[s.layer] = st
	}
	return out
}

// snapshot is the obs registry plus the runtime's own counters at one
// moment.
type snapshot struct {
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]obs.HistSnapshot
	rt       map[string]float64
}

var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

// carried holds the replay cache's counters as they stood at each
// resetReplayCache, summed. simcache.Reset zeroes them; adding them back in
// takeSnapshot keeps every delta right across a reset.
var (
	carriedMu sync.Mutex
	carried   = map[string]int64{}
)

// resetReplayCache empties the replay cache with simcache.Reset and carries
// the counters Reset zeroes. No simulation may run while it does.
func resetReplayCache() {
	carriedMu.Lock()
	defer carriedMu.Unlock()
	for name, v := range obs.Default().Snapshot().Counters {
		if strings.HasPrefix(name, "simcache/") {
			carried[name] += v
		}
	}
	simcache.Reset()
}

func takeSnapshot() snapshot {
	s := obs.Default().Snapshot()
	carriedMu.Lock()
	for name, v := range carried {
		s.Counters[name] += v
	}
	carriedMu.Unlock()
	rs := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		rs[i].Name = name
	}
	metrics.Read(rs)
	rt := map[string]float64{}
	for _, r := range rs {
		switch r.Value.Kind() {
		case metrics.KindUint64:
			rt[r.Name] = float64(r.Value.Uint64())
		case metrics.KindFloat64:
			rt[r.Name] = r.Value.Float64()
		}
	}
	return snapshot{counters: s.Counters, gauges: s.Gauges, hists: s.Histograms, rt: rt}
}

// sub returns the change from o to s: counter, histogram and runtime
// deltas, and s's gauges.
func (s snapshot) sub(o snapshot) snapshot {
	d := snapshot{counters: map[string]int64{}, gauges: s.gauges, hists: map[string]obs.HistSnapshot{}, rt: map[string]float64{}}
	for k, v := range s.counters {
		d.counters[k] = v - o.counters[k]
	}
	for k, h := range s.hists {
		d.hists[k] = subHist(h, o.hists[k])
	}
	for k, v := range s.rt {
		d.rt[k] = v - o.rt[k]
	}
	return d
}

func subHist(h, o obs.HistSnapshot) obs.HistSnapshot {
	old := map[int64]int64{}
	for _, b := range o.Buckets {
		old[b.Low] = b.N
	}
	d := obs.HistSnapshot{Count: h.Count - o.Count, Sum: h.Sum - o.Sum}
	for _, b := range h.Buckets {
		if n := b.N - old[b.Low]; n > 0 {
			b.N = n
			d.Buckets = append(d.Buckets, b)
		}
	}
	return d
}
