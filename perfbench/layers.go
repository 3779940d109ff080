package main

import (
	"fmt"
	"strings"
	"time"

	"iophases/internal/obs"
)

// layerInput is what the traced run measured, before reduction to the
// per-layer metrics.
type layerInput struct {
	setup, window snapshot             // obs and runtime deltas over the set-up and the traced segment
	gauges        map[string]int64     // gauge values at the end of the traced segment
	passes        int                  // traced passes (the per-pass base)
	windowCPU     time.Duration        // process CPU over the traced segment
	windowWall    time.Duration        // wall time of the traced segment
	sweepWidth    int                  // workers of the sweep pool
	samples       []stackSample        // the traced segment's CPU profile
	spans         map[string]spanTotal // benchmark-side spans during set-up
	winSpans      map[string]spanTotal // and during the traced segment
}

// perLayerMetrics are what a --trace 1 run reports, on every workload; a
// layer a workload does not exercise reads 0.
var perLayerMetrics = []metricSpec{
	{"des.events_scheduled", "count"},
	{"des.events_elided", "count"},
	{"des.proc_parks", "count"},
	{"des.queue_depth_max", "count"},
	{"des.cpu_share", "ratio"},
	{"des.handoff_cpu_share", "ratio"},
	{"des.host_ns_per_event", "ns"},
	{"netsim.cpu_share", "ratio"},
	{"netsim.link_bytes", "B"},
	{"netsim.messages", "count"},
	{"disksim.cpu_share", "ratio"},
	{"disksim.ops", "count"},
	{"disksim.bytes", "B"},
	{"disksim.seeks", "count"},
	{"disksim.queue_wait_us_p50", "us"},
	{"fsim.cpu_share", "ratio"},
	{"fsim.opens", "count"},
	{"fsim.meta_ops", "count"},
	{"faults.retries", "count"},
	{"mpiio.cpu_share", "ratio"},
	{"mpi.cpu_share", "ratio"},
	{"ior.cpu_share", "ratio"},
	{"iozone.cpu_share", "ratio"},
	{"runner.run_s", "s"},
	{"runner.runs", "count"},
	{"predict.estimate_s", "s"},
	{"predict.estimates", "count"},
	{"predict.explore_s", "s"},
	{"predict.peak_s", "s"},
	{"predict.cpu_share", "ratio"},
	{"predict.eq6_err_max_pct", "%"},
	{"simcache.hits", "count"},
	{"simcache.misses", "count"},
	{"simcache.hit_ratio", "ratio"},
	{"simcache.singleflight_waits", "count"},
	{"fastpath.hits", "count"},
	{"fastpath.bailouts", "count"},
	{"fastpath.admit_ratio", "ratio"},
	{"trace.decode_s", "s"},
	{"trace.decode_ns_per_event", "ns"},
	{"trace.events", "count"},
	{"trace.rank_opens", "count"},
	{"trace.cpu_share", "ratio"},
	{"pattern.chunks_folded", "count"},
	{"pattern.boundary_merges", "count"},
	{"pattern.cpu_share", "ratio"},
	{"phase.rescans", "count"},
	{"phase.cpu_share", "ratio"},
	{"core.build_s", "s"},
	{"core.cpu_share", "ratio"},
	{"sweep.tasks", "count"},
	{"sweep.busy_s", "s"},
	{"sweep.workers_max", "count"},
	{"sweep.utilization", "ratio"},
	{"serve.server_p50_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.cache_hits", "count"},
	{"serve.coalesced", "count"},
	{"serve.rejected", "count"},
	{"serve.queue_wait_us_p99", "us"},
	{"serve.cpu_share", "ratio"},
	{"net_http.cpu_share", "ratio"},
	{"encoding_json.cpu_share", "ratio"},
	{"client.hits", "count"},
	{"client.hit_p50_us", "us"},
	{"client.misses", "count"},
	{"client.miss_p50_ms", "ms"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.num_gc", "count"},
	{"runtime.cpu_share", "ratio"},
	{"profile.samples", "count"},
	{"tracing.passes", "count"},
	{"tracing.overhead_s", "s"},
	{"tracing.overhead_pct", "%"},
}

// cpuShareLayers are the packages whose share of the CPU profile is
// reported, under their metric prefix.
var cpuShareLayers = map[string]string{
	"des": "des", "netsim": "netsim", "disksim": "disksim", "fsim": "fsim",
	"mpiio": "mpiio", "mpi": "mpi", "ior": "ior", "iozone": "iozone",
	"predict": "predict", "pattern": "pattern", "phase": "phase", "trace": "trace",
	"core": "core", "serve": "serve", "net/http": "net_http", "encoding/json": "encoding_json",
	"runtime": "runtime",
}

// layerMetrics reduces a traced run to the per-layer metrics. Counts and
// span times are one set-up plus one average traced pass, so a simulated
// count repeats exactly whenever the work does; CPU shares come from the
// traced segment's profile alone.
func layerMetrics(in layerInput) map[string]metric {
	// Figures a workload reports itself (workload.layerTimes) stay zero on
	// the workloads that do not exercise them.
	m := map[string]metric{}
	for _, s := range perLayerMetrics {
		m[s.name] = metric{0, s.unit}
	}
	per := func(setup, window float64) float64 {
		if in.passes == 0 {
			return setup
		}
		return setup + window/float64(in.passes)
	}
	count := func(name string, names ...string) {
		var s, w int64
		for _, n := range names {
			s += in.setup.counters[n]
			w += in.window.counters[n]
		}
		m[name] = metric{per(float64(s), float64(w)), m[name].Unit}
	}
	// The window delta holds every counter registered by its end, which
	// includes all the set-up registered.
	prefixed := func(prefix, suffix string) []string {
		var out []string
		for n := range in.window.counters {
			if strings.HasPrefix(n, prefix) && strings.HasSuffix(n, suffix) {
				out = append(out, n)
			}
		}
		return out
	}
	spanSec := func(name, layer string) {
		m[name] = metric{per(in.spans[layer].sec, in.winSpans[layer].sec), "s"}
	}
	spanCount := func(name, layer string) {
		m[name] = metric{per(float64(in.spans[layer].n), float64(in.winSpans[layer].n)), "count"}
	}

	// The DES core and the simulated subsystems.
	count("des.events_scheduled", "des/events_scheduled")
	count("des.events_elided", "des/events_elided")
	count("des.proc_parks", "des/proc_parks")
	m["des.queue_depth_max"] = metric{float64(in.gauges["des/queue_depth_max"]), "count"}
	count("netsim.link_bytes", prefixed("netsim/link/", "/bytes")...)
	count("netsim.messages", prefixed("netsim/link/", "/messages")...)
	count("disksim.ops", "disksim/read_ops", "disksim/write_ops")
	count("disksim.bytes", "disksim/read_bytes", "disksim/write_bytes")
	count("disksim.seeks", "disksim/seeks")
	m["disksim.queue_wait_us_p50"] = metric{histP50(in.window.hists["disksim/queue_wait_us"]), "us"}
	count("fsim.opens", "fsim/opens")
	count("fsim.meta_ops", "fsim/meta_ops")
	count("faults.retries", "faults/retries")

	// Characterization runs and the analysis stage.
	spanSec("runner.run_s", "runner")
	spanCount("runner.runs", "runner")
	spanSec("core.build_s", "core")
	spanSec("predict.estimate_s", "predict.estimate")
	spanCount("predict.estimates", "predict.estimate")
	spanSec("predict.explore_s", "predict.explore")
	spanSec("predict.peak_s", "predict.peak")

	// The replay cache and the analytic fast path.
	count("simcache.hits", "simcache/hits")
	count("simcache.misses", "simcache/misses")
	count("simcache.singleflight_waits", "simcache/singleflight_waits")
	m["simcache.hit_ratio"] = metric{ratio(m["simcache.hits"].Value, m["simcache.hits"].Value+m["simcache.misses"].Value), "ratio"}
	count("fastpath.hits", "fastpath/hits")
	count("fastpath.bailouts", "fastpath/bailouts")
	m["fastpath.admit_ratio"] = metric{ratio(m["fastpath.hits"].Value, m["fastpath.hits"].Value+m["fastpath.bailouts"].Value), "ratio"}

	// Streaming extraction.
	count("pattern.chunks_folded", "stream/chunks_folded")
	count("pattern.boundary_merges", "stream/boundary_merges")
	count("phase.rescans", "stream/rescans")

	// The sweep pool: busy time over the time its workers were available.
	// A task that maps over the pool again is busy while its own tasks
	// are, and several callers can map at once, so it can exceed 1.
	count("sweep.tasks", "sweep/tasks")
	m["sweep.busy_s"] = metric{per(float64(in.setup.counters["sweep/busy_ns"]), float64(in.window.counters["sweep/busy_ns"])) / 1e9, "s"}
	m["sweep.workers_max"] = metric{float64(in.gauges["sweep/workers_max"]), "count"}
	m["sweep.utilization"] = metric{ratio(float64(in.window.counters["sweep/busy_ns"]), float64(in.windowWall)*float64(in.sweepWidth)), "ratio"}

	// The service's own counters.
	count("serve.cache_hits", "serve/cache_hits")
	count("serve.coalesced", "serve/coalesced")
	count("serve.rejected", "serve/rejected")

	// The Go runtime over the traced segment.
	w := in.window.rt
	m["runtime.gc_cpu_share"] = metric{ratio(w["/cpu/classes/gc/total:cpu-seconds"], w["/cpu/classes/total:cpu-seconds"]), "ratio"}
	m["runtime.alloc_mb"] = metric{per(in.setup.rt["/gc/heap/allocs:bytes"], w["/gc/heap/allocs:bytes"]) / (1 << 20), "MB"}
	m["runtime.num_gc"] = metric{per(in.setup.rt["/gc/cycles/total:gc-cycles"], w["/gc/cycles/total:gc-cycles"]), "count"}

	// CPU profile shares.
	shares, handoff, total := cpuShares(in.samples)
	for pkg, name := range cpuShareLayers {
		m[name+".cpu_share"] = metric{shares[pkg], "ratio"}
	}
	m["des.handoff_cpu_share"] = metric{handoff, "ratio"}
	m["profile.samples"] = metric{float64(total), "count"}
	events := float64(in.window.counters["des/events_scheduled"])
	m["des.host_ns_per_event"] = metric{ratio(float64(in.windowCPU)*shares["des"], events), "ns"}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histP50 is the upper bound of the log2 bucket holding a histogram's
// nearest-rank median (0 when it is empty). Buckets come in ascending order.
func histP50(h obs.HistSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(rankOf(int(h.Count), 50))
	var seen int64
	for _, b := range h.Buckets {
		if seen += b.N; seen >= rank {
			return float64(b.High)
		}
	}
	return 0
}

// predictions checks, on a traced run, the per-layer facts the README
// records for each workload. They describe the program as it stands, so a
// change that breaks one is reported, not failed: the README's layer map
// must then be revised.
func predictions(workload string, m map[string]metric) []string {
	type claim struct {
		text  string
		holds bool
	}
	var claims []claim
	switch workload {
	case "paper":
		largest := true
		for _, s := range perLayerMetrics {
			if strings.HasSuffix(s.name, ".cpu_share") && s.name != "des.cpu_share" && m[s.name].Value > m["des.handoff_cpu_share"].Value {
				largest = false
			}
		}
		claims = []claim{
			{"des.handoff_cpu_share is the largest single share", largest},
			{"fastpath.hits = 0 (the fast path is bypassed)", m["fastpath.hits"].Value == 0},
		}
	case "whatif":
		claims = []claim{
			{"fastpath.hits > 0", m["fastpath.hits"].Value > 0},
			{"serve.cache_hits > 0", m["serve.cache_hits"].Value > 0},
		}
	}
	var lines []string
	for _, c := range claims {
		verdict := "holds"
		if !c.holds {
			verdict = "DOES NOT HOLD"
		}
		lines = append(lines, fmt.Sprintf("prediction: %s: %s", c.text, verdict))
	}
	return lines
}
