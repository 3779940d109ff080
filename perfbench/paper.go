package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"iophases"
	"iophases/internal/apps/btio"
	"iophases/internal/apps/madbench"
	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/predict"
	"iophases/internal/runner"
	"iophases/internal/trace"
	"iophases/internal/units"
)

// peakFileSize is the IOzone file size behind BW_PK (Eq. 3–4).
const peakFileSize = units.GiB

// paperApp is one application of the paper workload: characterized on its
// source configuration, evaluated on every preset able to host it.
type paperApp struct {
	name   string
	np     int
	source cluster.Spec
	rs     int64        // request size of the BW_PK measurement
	format trace.Format // how the paper workload saves its characterization trace
	prog   runner.ProgramFactory
}

// run executes the application traced on spec — a characterization run or
// a measured run, depending on what the caller does with it.
func (a paperApp) run(spec cluster.Spec) runner.Result {
	return runner.Run(spec, a.np, a.name, a.prog, runner.Options{Trace: true})
}

func madbenchApp(name string, np int, p madbench.Params, source cluster.Spec) paperApp {
	return paperApp{name: name, np: np, source: source, rs: p.RS, format: trace.FormatText,
		prog: func(sys *mpiio.System) func(*mpi.Rank) { return madbench.Program(sys, p) }}
}

func btioApp(name string, np int, class btio.Class, source cluster.Spec) paperApp {
	p := btio.Default(class)
	return paperApp{name: name, np: np, source: source, rs: class.RS(np), format: trace.FormatBinary,
		prog: func(sys *mpiio.System) func(*mpi.Rank) { return btio.Program(sys, p) }}
}

// paper runs the paper's methodology end to end on a cold replay cache,
// as every CLI invocation does: characterize, save the trace and extract
// the model from it, estimate on every preset that can host the
// application (Eq. 1–2), measure there, compare (Eq. 6), measure BW_PK
// (Eq. 3–5) and select the configuration.
type paper struct {
	e      *env
	apps   []paperApp
	hosts  [][]cluster.Spec // per app
	check  *digestChecker
	digest string
	eq6Max float64
	decode decodeStats
}

func newPaper(e *env) workload {
	expected := e.golden.Paper
	if e.opts.record {
		expected = ""
	}
	return &paper{e: e, check: newDigestChecker(expected)}
}

func (w *paper) callers() int      { return 1 }
func (w *paper) tracedPasses() int { return 0 }
func (w *paper) maxPasses() int    { return 0 }
func (w *paper) close()            {}

// setup orders the applications and presets by the seed (the outputs do
// not depend on the order, so the golden digest holds for every seed) and
// warms the process with one MADBench2 characterize-extract-estimate
// round, then empties the replay cache again.
func (w *paper) setup() error {
	rng := rand.New(rand.NewSource(w.e.opts.seed))
	// The BT-IO runs are shortened so that a pass takes a few seconds and
	// a run holds over a dozen passes: the median of many short passes
	// shrugs off a burst of load on the host, the median of four long
	// ones does not. Each keeps its rank count, request sizes and phase
	// shapes. MADBench2 keeps its full size: shortened too, it left the
	// DES hand-off no larger a share of the profile than the runtime's.
	classC, classD := btio.ClassC, btio.ClassD
	classC.TimeSteps = 25 // 5 dumps instead of 40
	classD.TimeSteps = 10 // 2 dumps instead of 50
	apps := []paperApp{
		madbenchApp("madbench2-16p", 16, madbench.Default(), cluster.ConfigA()),
		btioApp("btio-C-16p", 16, classC, cluster.ConfigA()),
		btioApp("btio-D-64p", 64, classD, cluster.ConfigC()),
	}
	rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	w.apps, w.hosts = apps, nil
	for _, a := range apps {
		var hosts []cluster.Spec
		for _, spec := range cluster.Presets() {
			if a.np <= spec.MaxProcs() {
				hosts = append(hosts, spec)
			}
		}
		rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
		w.hosts = append(w.hosts, hosts)
	}

	warm := madbenchApp("madbench2-16p", 16, madbench.Default(), cluster.ConfigA())
	tr := w.e.tr
	var res runner.Result
	tr.do("runner", func() { res = warm.run(warm.source) })
	var m *core.Model
	tr.do("core", func() { m = core.Build(res.Set) })
	var err error
	tr.do("predict.estimate", func() { _, err = predict.EstimateTime(m, warm.source) })
	resetReplayCache()
	return err
}

func (w *paper) pass(_, _ int) passResult {
	tr := w.e.tr
	resetReplayCache()
	pass := tr.begin("pass")
	defer tr.end(pass)
	var (
		out  passResult
		rows []string
		eq6  float64
	)
	fail := func(format string, args ...any) {
		out.failures = append(out.failures, fmt.Sprintf(format, args...))
	}
	for i, a := range w.apps {
		out.attempted += 3 // characterize, extract, select
		var res runner.Result
		tr.do("runner", func() { res = a.run(a.source) })
		m, err := w.extract(a, res.Set)
		if err != nil {
			fail("%s: extract: %v", a.name, err)
			continue
		}
		for _, spec := range w.hosts[i] {
			out.attempted += 5 // estimate, measure, extract, compare, peak
			var est *predict.Estimate
			tr.do("predict.estimate", func() { est, err = predict.EstimateTime(m, spec) })
			if err != nil {
				fail("%s on %s: estimate: %v", a.name, spec.Name, err)
				continue
			}
			var measured *core.Model
			tr.do("runner", func() { res = a.run(spec) })
			tr.do("core", func() { measured = core.Build(res.Set) })
			var groups []predict.GroupComparison
			tr.do("predict.compare", func() { groups, err = predict.CompareByFamily(est, measured) })
			if err != nil {
				fail("%s on %s: compare: %v", a.name, spec.Name, err)
				continue
			}
			var pkW, pkR units.Bandwidth
			tr.do("predict.peak", func() { pkW, pkR = predict.PeakBandwidth(spec, peakFileSize, a.rs) })

			key := a.name + " " + spec.Name
			rows = append(rows, fmt.Sprintf("%s time_io_ns=%d ior_runs=%d", key, est.TotalCH, est.IORRuns))
			for _, g := range groups {
				rows = append(rows, fmt.Sprintf("%s eq6 %q ch_ns=%d md_ns=%d err_pct=%.9g", key, g.Label, g.TimeCH, g.TimeMD, g.RelErr))
				eq6 = math.Max(eq6, math.Abs(g.RelErr))
			}
			rows = append(rows, fmt.Sprintf("%s bw_pk_mbps w=%.9g r=%.9g", key, pkW.MBpsValue(), pkR.MBpsValue()))
			for _, pm := range measured.Phases {
				bwMD := units.BandwidthOf(pm.Weight, units.FromSeconds(pm.MeasuredSec))
				pk := pkW
				switch pm.Direction() {
				case core.Read:
					pk = pkR
				case core.Write:
				default:
					pk = (pkW + pkR) / 2
				}
				rows = append(rows, fmt.Sprintf("%s eq5 phase=%d usage_pct=%.9g", key, pm.ID, predict.Usage(bwMD, pk)))
			}
			out.items++
		}
		var best int
		var choices []predict.Choice
		tr.do("predict.select", func() { best, choices, err = predict.SelectConfig(m, w.hosts[i]) })
		if err != nil {
			fail("%s: select: %v", a.name, err)
			continue
		}
		rows = append(rows, fmt.Sprintf("%s selected %s", a.name, choices[best].Config))
	}
	// The seed only orders the work; sorting the rows makes the digest
	// independent of that order.
	sort.Strings(rows)
	d := digest([]byte(strings.Join(rows, "\n")))
	if msg := w.check.check("paper outputs", d); msg != "" {
		fail("%s", msg)
	}
	w.digest, w.eq6Max = d, eq6
	return out
}

// extract saves a characterization trace in the application's format and
// extracts the model from the saved trace with the bounded-memory
// streaming path, as iotrace and iomodel do, behind the decode timer when
// tracing. The model must equal in-memory extraction of the saved trace;
// the text format keeps times to the microsecond, so the model may differ
// from extraction of set itself.
func (w *paper) extract(a paperApp, set *trace.Set) (*core.Model, error) {
	tr := w.e.tr
	dir := filepath.Join(w.e.dir, "traces", a.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := trace.WriteDir(set.Source(), dir, a.format); err != nil {
		return nil, fmt.Errorf("saving the trace: %w", err)
	}
	src, err := iophases.OpenTraceDir(dir)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		src = timedSource{Source: src, stats: &w.decode}
	}
	var m *core.Model
	tr.do("core", func() { m, err = iophases.ExtractStream(src) })
	if err != nil {
		return nil, err
	}
	streamed, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	saved, err := trace.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	back, err := trace.ReadSet(saved)
	if err != nil {
		return nil, err
	}
	inMemory, err := json.Marshal(core.Build(back))
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(streamed, inMemory) {
		return nil, fmt.Errorf("streamed and in-memory extraction of the saved trace differ")
	}
	return m, nil
}

func (w *paper) verify() []string { return nil }

func (w *paper) summary(window) []string {
	return []string{
		fmt.Sprintf("eq6_err_max_pct %.6g %% (worst Eq. 6 error of the model against the simulated measurement; there is no hardware reference)", w.eq6Max),
		"items are (application, configuration) evaluations: estimate, measurement, Eq. 6 comparison and BW_PK; a request is one pass",
	}
}

func (w *paper) layerTimes(passes int) map[string]metric {
	n := float64(max(passes, 1))
	ns := float64(w.decode.readNS.Load())
	ev := float64(w.decode.events.Load())
	return map[string]metric{
		"predict.eq6_err_max_pct":   {w.eq6Max, "%"},
		"trace.decode_s":            {ns / 1e9 / n, "s"},
		"trace.decode_ns_per_event": {ratio(ns, ev), "ns"},
		"trace.events":              {ev / n, "count"},
		"trace.rank_opens":          {float64(w.decode.opens.Load()) / n, "count"},
	}
}

func (w *paper) record(g *goldenFile) error {
	if w.digest == "" {
		return fmt.Errorf("no paper pass completed")
	}
	g.Paper = w.digest
	return nil
}
