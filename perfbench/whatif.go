package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"iophases/internal/apps/madbench"
	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/faults"
	"iophases/internal/obs"
	"iophases/internal/runner"
	"iophases/internal/serve"
	"iophases/internal/units"
)

const (
	// batchLen requests make one pass of a whatif caller, batchMisses of
	// them bodies the caller has not sent before: one explore, one
	// compare-degraded and two predicts. The mix is an assumption, not a
	// measured caller: see README.md.
	batchLen    = 40
	batchMisses = 4
	// whatifBatches caps each caller's batches in a run, so that the run
	// sends the same bodies however fast the program is. With two callers
	// a run sends at most 8 + 2×250×4 = 2008 distinct bodies, under half
	// of serveCacheCap, so the server's response cache never clears.
	whatifBatches = 250
	// serveCacheCap is the response cache bound of internal/serve: when
	// full, the cache empties at once.
	serveCacheCap = 4096
	// np1PerCaller np=1 models make each caller's new-body space: 8
	// explores each, 768 in all, of which a run uses whatifBatches.
	np1PerCaller = 96
	// whatifTracedBatches is the traced segment's fixed work per caller,
	// fixed so that its simulated counts repeat exactly.
	whatifTracedBatches = 40
	// goldenBatches is how many leading batches per caller have their
	// answers recorded as golden digests, besides the popular bodies.
	goldenBatches = 40

	model16  = "madbench2-16p"
	modelPop = "madbench2-1p-popular"
)

// request is one API call of the request stream.
type request struct {
	path    string
	body    []byte
	key     string // digest of path and body
	miss    bool   // the generator has not sent this body before
	configs int    // configurations a predict request estimates on
}

func newRequest(path string, v any) request {
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request DTOs always marshal
	}
	return request{path: path, body: body, key: digest([]byte(path), body)}
}

// sample is one answered request as the caller saw it.
type sample struct {
	miss    bool
	traced  bool
	lat     time.Duration
	id      string // the server's request id
	configs int    // as in request
}

// whatif runs the prediction service in-process on loopback HTTP and
// drives it with closed-loop callers, as scripted callers that wait for
// each answer do. Most bodies repeat earlier ones and are answered from
// the response cache; the rest are new and run cold simulations.
type whatif struct {
	e       *env
	corpus  map[string]*core.Model
	np1     [][]string // each caller's np=1 models
	popular []request
	warmS   float64 // the last set-up's Warm time
	warmN   int     // estimates Warm ran

	hs      *http.Server
	served  chan error
	url     string
	clients []*http.Client
	gens    []*generator
	log     *accessLog

	mu       sync.Mutex
	seen     map[string]string // request key → digest of its first response
	samples  []sample          // since the last set-up
	recorded map[string]string
	hits0    int64 // the server's cache hit count at the end of set-up
}

func newWhatif(e *env) workload {
	w := &whatif{e: e, seen: map[string]string{}, recorded: map[string]string{}}
	if e.opts.traced {
		w.log = &accessLog{}
	}
	return w
}

func (w *whatif) callers() int      { return w.e.procs }
func (w *whatif) tracedPasses() int { return whatifTracedBatches }
func (w *whatif) maxPasses() int    { return whatifBatches }

// setup characterizes the corpus, builds and warms a fresh server on a
// cold replay cache, and sends the popular bodies once.
func (w *whatif) setup() error {
	w.close()
	resetReplayCache()
	tr := w.e.tr
	rng := rand.New(rand.NewSource(w.e.opts.seed))

	characterize := func(np int, p madbench.Params) *core.Model {
		app := madbenchApp("madbench2", np, p, cluster.ConfigA())
		var res runner.Result
		tr.do("runner", func() { res = app.run(app.source) })
		var m *core.Model
		tr.do("core", func() { m = core.Build(res.Set) })
		return m
	}
	w.corpus = map[string]*core.Model{
		model16:  characterize(16, madbench.Default()),
		modelPop: characterize(1, madbench.Default()),
	}
	// Each caller gets one of every adjacent pair of request sizes, so the
	// callers' new-body spaces are disjoint and equally costly.
	w.np1 = make([][]string, w.callers())
	for i := 0; i < np1PerCaller*len(w.np1); i++ {
		p := madbench.Default()
		p.RS = 6*units.MiB + int64(i)*64*units.KiB
		name := fmt.Sprintf("madbench2-1p-rs%dk", p.RS/units.KiB)
		w.corpus[name] = characterize(1, p)
		c := i % len(w.np1)
		if len(w.np1) == 2 && rng.Intn(2) == 1 {
			c = 1 - i%2
		}
		w.np1[c] = append(w.np1[c], name)
	}

	srv, err := serve.New(serve.Options{Corpus: w.corpus, FastPath: "on", AccessLog: w.log.writer()})
	if err != nil {
		return err
	}
	w.warmN = 0
	for _, m := range w.corpus {
		for _, spec := range cluster.Presets() {
			if m.NP <= spec.MaxProcs() {
				w.warmN++
			}
		}
	}
	t0 := time.Now()
	tr.do("predict.estimate", func() { err = srv.Warm() })
	w.warmS = time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("warm: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.clients = make([]*http.Client, w.callers())
	for c := range w.clients {
		w.clients[c] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}

	w.popular = []request{
		newRequest("/v1/predict", serve.PredictRequest{Model: model16}),
		newRequest("/v1/predict", serve.PredictRequest{Model: model16, Phases: true}),
		newRequest("/v1/predict", serve.PredictRequest{Model: modelPop}),
		newRequest("/v1/compare-degraded", serve.CompareDegradedRequest{Model: model16, Config: "configA", Scenario: faults.PresetNames()[0]}),
	}
	for _, spec := range cluster.Presets() {
		w.popular = append(w.popular, newRequest("/v1/explore", serve.ExploreRequest{Model: modelPop, Base: spec.Name}))
	}
	for _, r := range w.popular {
		if _, msg := w.send(0, r, true); msg != "" {
			return errors.New(msg)
		}
	}
	// Draw every batch now, so a short new-body space fails the set-up
	// instead of cutting a caller's run short.
	w.gens = make([]*generator, w.callers())
	for c := range w.gens {
		g := newGenerator(w.e.opts.seed, c, w.popular, w.np1[c])
		if _, ok := g.batch(whatifBatches - 1); !ok {
			return fmt.Errorf("caller %d has new bodies for fewer than %d batches", c, whatifBatches)
		}
		w.gens[c] = g
	}
	w.samples = nil
	w.hits0 = serveCacheHits()
	return nil
}

// serveCacheHits reads the server's always-on response cache hit counter.
func serveCacheHits() int64 { return obs.Default().Counter("serve/cache_hits").Value() }

func (w *whatif) pass(c, k int) passResult {
	batch, ok := w.gens[c].batch(k)
	if !ok {
		return passResult{attempted: 1, failures: []string{fmt.Sprintf("caller %d has no batch %d", c, k)}}
	}
	out := passResult{items: int64(len(batch)), attempted: int64(len(batch))}
	pass := w.e.tr.begin("pass")
	defer w.e.tr.end(pass)
	for _, r := range batch {
		id := w.e.tr.begin("serve.request")
		s, msg := w.send(c, r, k < goldenBatches)
		w.e.tr.end(id)
		if msg != "" {
			out.failures = append(out.failures, msg)
			continue
		}
		s.traced = w.e.tr != nil
		out.latencies = append(out.latencies, s.lat.Seconds()*1e3)
		w.mu.Lock()
		w.samples = append(w.samples, s)
		w.mu.Unlock()
	}
	return out
}

// send makes one request on caller c's connection and checks the answer:
// status 200, bytes identical to every earlier answer to the same body,
// and equal to the golden digest when one is recorded for it. With
// --record-golden, recordable says whether to record the answer.
func (w *whatif) send(c int, r request, recordable bool) (sample, string) {
	start := time.Now()
	resp, err := w.clients[c].Post(w.url+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return sample{}, fmt.Sprintf("%s %s: %v", r.path, r.body, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return sample{}, fmt.Sprintf("%s %s: reading the answer: %v", r.path, r.body, err)
	}
	if resp.StatusCode != http.StatusOK {
		return sample{}, fmt.Sprintf("%s %s: status %d: %s", r.path, r.body, resp.StatusCode, bytes.TrimSpace(body))
	}
	d := digest(body)
	w.mu.Lock()
	defer w.mu.Unlock()
	if first, ok := w.seen[r.key]; ok && first != d {
		return sample{}, fmt.Sprintf("%s %s: answer %s differs from an earlier answer %s to the same body", r.path, r.body, d, first)
	}
	w.seen[r.key] = d
	if w.e.opts.record {
		if recordable {
			w.recorded[r.key] = d
		}
	} else if want, ok := w.e.golden.Whatif[r.key]; ok && w.e.opts.seed == w.e.golden.Seed && want != d {
		return sample{}, fmt.Sprintf("%s %s: answer %s, golden %s", r.path, r.body, d, want)
	}
	return sample{miss: r.miss, lat: lat, id: resp.Header.Get("X-Request-Id"), configs: r.configs}, ""
}

// verify checks that the server answered from its response cache exactly
// the requests the callers classed as hits: a cache that cleared, or a
// body new to a caller but not to the server, would make them differ.
func (w *whatif) verify() []string {
	hits, _ := w.classCounts()
	if server := serveCacheHits() - w.hits0; server != hits {
		return []string{fmt.Sprintf("the server answered %d requests from its response cache, the callers sent %d repeated bodies", server, hits)}
	}
	return nil
}

// classCounts counts the answered requests since set-up by class.
func (w *whatif) classCounts() (hits, misses int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range w.samples {
		if s.miss {
			misses++
		} else {
			hits++
		}
	}
	return hits, misses
}

// latencies splits the client-side latencies by class.
func (w *whatif) latencies(traced bool) (hits, misses []float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range w.samples {
		if s.traced != traced {
			continue
		}
		if s.miss {
			misses = append(misses, float64(s.lat.Microseconds())/1e3)
		} else {
			hits = append(hits, float64(s.lat.Nanoseconds())/1e3)
		}
	}
	return hits, misses
}

// summary prints the service's end-to-end figures: throughput, and the
// latency of hits (bodies the caller sent before) and misses.
func (w *whatif) summary(win window) []string {
	hitLat, missLat := w.latencies(false)
	hits, misses := w.classCounts()
	return []string{
		fmt.Sprintf("req_per_s %.6g 1/s", float64(win.items)/win.wall.Seconds()),
		atPercentile("hit_p50_us", hitLat, 50, "us"),
		atPercentile("hit_p99_us", hitLat, 99, "us"),
		atPercentile("miss_p50_ms", missLat, 50, "ms"),
		atPercentile("miss_p95_ms", missLat, 95, "ms"),
		"hit latency: " + describe(summarize(hitLat), "us"),
		"miss latency: " + describe(summarize(missLat), "ms"),
		fmt.Sprintf("callers: %d closed-loop, at most %d passes each of %d requests with %d new bodies; items and requests are HTTP requests",
			w.callers(), whatifBatches, batchLen, batchMisses),
		fmt.Sprintf("miss share %.4f: the server computed %d of %d answered requests since set-up and served %d from its response cache",
			float64(misses)/float64(max(hits+misses, 1)), misses, hits+misses, serveCacheHits()-w.hits0),
	}
}

func (w *whatif) layerTimes(passes int) map[string]metric {
	n := float64(max(passes, 1))
	hits, misses := w.latencies(true)
	m := map[string]metric{
		"client.hits":        {float64(len(hits)) / n, "count"},
		"client.hit_p50_us":  {median(hits), "us"},
		"client.misses":      {float64(len(misses)) / n, "count"},
		"client.miss_p50_ms": {median(misses), "ms"},
	}

	// Join the traced requests with the server's access log by request id.
	entries := w.log.byID()
	w.mu.Lock()
	defer w.mu.Unlock()
	var server, transport, queue []float64
	busy := map[string]float64{}
	estimates := 0
	for _, s := range w.samples {
		e, ok := entries[s.id]
		if !s.traced || !ok {
			continue
		}
		server = append(server, float64(e.DurUS))
		transport = append(transport, float64(s.lat.Microseconds()-e.DurUS))
		if e.Cache == "miss" {
			queue = append(queue, float64(e.QueueUS))
			busy[e.Path] += float64(e.DurUS) / 1e6
			if e.Path == "/v1/predict" {
				estimates += s.configs
			}
		}
	}
	m["serve.server_p50_us"] = metric{median(server), "us"}
	m["serve.transport_us"] = metric{median(transport), "us"}
	m["serve.queue_wait_us_p99"] = metric{0, "us"}
	if len(queue) > 0 {
		m["serve.queue_wait_us_p99"] = metric{nearestRank(sortedCopy(queue), 99), "us"}
	}
	// The predict calls run inside the server: their time is the
	// server-side time of the requests that computed them, plus Warm's
	// estimates at set-up.
	m["predict.estimate_s"] = metric{w.warmS + busy["/v1/predict"]/n, "s"}
	m["predict.estimates"] = metric{float64(w.warmN) + float64(estimates)/n, "count"}
	m["predict.explore_s"] = metric{busy["/v1/explore"] / n, "s"}
	m["predict.peak_s"] = metric{busy["/v1/compare-degraded"] / n, "s"}
	return m
}

func (w *whatif) record(g *goldenFile) error {
	g.Whatif = w.recorded
	return nil
}

// close stops the server, waits for it, and drops idle connections.
func (w *whatif) close() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // a server that fails to drain in time is closed below
	_ = w.hs.Close()
	<-w.served
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	w.hs = nil
}

// accessLog collects the server's access log in the traced run.
type accessLog struct {
	mu      sync.Mutex
	entries []serve.AccessEntry
}

// writer returns the log as the server's AccessLog, or nil (logging off)
// on a nil log.
func (l *accessLog) writer() io.Writer {
	if l == nil {
		return nil
	}
	return l
}

func (l *accessLog) Write(p []byte) (int, error) {
	var e serve.AccessEntry
	if err := json.Unmarshal(p, &e); err == nil {
		l.mu.Lock()
		l.entries = append(l.entries, e)
		l.mu.Unlock()
	}
	return len(p), nil
}

func (l *accessLog) byID() map[string]serve.AccessEntry {
	out := map[string]serve.AccessEntry{}
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.entries {
		out[e.ID] = e
	}
	return out
}

// generator is one caller's seeded request stream. Batch k depends only on
// the seed, the caller and k, and the callers' new bodies never coincide,
// because each caller's new bodies name only its own np=1 models.
type generator struct {
	rng      *rand.Rand
	models   []string  // the caller's np=1 models
	pool     []request // bodies available for repeats: popular and sent
	explores []request // new explore bodies, in sending order
	used     map[string]bool
	nDeg     int
	batches  [][]request
	spent    bool // the new-body space ran out
}

func newGenerator(seed int64, caller int, popular []request, models []string) *generator {
	g := &generator{
		rng:    rand.New(rand.NewSource(seed*7919 + int64(caller) + 1)),
		models: models,
		used:   map[string]bool{},
	}
	for _, r := range popular {
		g.pool = append(g.pool, r)
		g.used[r.key] = true
	}
	// Explores rotate over the four base presets so that every stretch of
	// the stream mixes them alike; within a base the order is seeded.
	presets := cluster.Presets()
	perBase := make([][]request, len(presets))
	for b, spec := range presets {
		for _, model := range models {
			for _, faithful := range []bool{false, true} {
				perBase[b] = append(perBase[b], newRequest("/v1/explore",
					serve.ExploreRequest{Model: model, Base: spec.Name, Faithful: faithful}))
			}
		}
		g.rng.Shuffle(len(perBase[b]), func(i, j int) { perBase[b][i], perBase[b][j] = perBase[b][j], perBase[b][i] })
	}
	for i := range perBase[0] {
		for b := range perBase {
			g.explores = append(g.explores, perBase[b][i])
		}
	}
	return g
}

// batch returns batch k, or false once the caller's new-body space has run
// out.
func (g *generator) batch(k int) ([]request, bool) {
	for len(g.batches) <= k && !g.spent {
		if b, ok := g.next(); ok {
			g.batches = append(g.batches, b)
		} else {
			g.spent = true
		}
	}
	if k < len(g.batches) {
		return g.batches[k], true
	}
	return nil, false
}

// next draws one batch: batchMisses new bodies (an explore, a
// compare-degraded and two predicts, all on the caller's np=1 models) at
// seeded positions, and repeats drawn uniformly from the popular bodies
// and the caller's earlier ones. Every request is classed here: a miss
// when the caller has not sent its body before, else a hit.
func (g *generator) next() ([]request, bool) {
	missAt := map[int]bool{}
	for _, i := range g.rng.Perm(batchLen)[:batchMisses] {
		missAt[i] = true
	}
	kinds := []func() (request, bool){g.newExplore, g.newDegraded, g.newPredict, g.newPredict}
	g.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	batch := make([]request, 0, batchLen)
	for i := 0; i < batchLen; i++ {
		var r request
		if missAt[i] {
			var ok bool
			if r, ok = kinds[0](); !ok {
				return nil, false
			}
			kinds = kinds[1:]
		} else {
			r = g.pool[g.rng.Intn(len(g.pool))]
		}
		r.miss = !g.used[r.key]
		if r.miss {
			g.used[r.key] = true
			g.pool = append(g.pool, r)
		}
		batch = append(batch, r)
	}
	return batch, true
}

func (g *generator) newExplore() (request, bool) {
	if len(g.explores) == 0 {
		return request{}, false
	}
	r := g.explores[0]
	g.explores = g.explores[1:]
	return r, true
}

// newDegraded walks the caller's np=1 models, then configurations, then
// fault scenarios.
func (g *generator) newDegraded() (request, bool) {
	n := g.nDeg
	g.nDeg++
	presets, scenarios := cluster.Presets(), faults.PresetNames()
	k := n / len(g.models)
	if k >= len(presets)*len(scenarios) {
		return request{}, false
	}
	return newRequest("/v1/compare-degraded", serve.CompareDegradedRequest{
		Model:    g.models[n%len(g.models)],
		Config:   presets[k%len(presets)].Name,
		Scenario: scenarios[k/len(presets)],
	}), true
}

// newPredict draws a predict body the caller has not sent: one of its
// np=1 models on a seeded subset of the presets. It gives up when many
// draws in a row were all sent before.
func (g *generator) newPredict() (request, bool) {
	presets := cluster.Presets()
	for try := 0; try < 1000; try++ {
		req := serve.PredictRequest{
			Model:    g.models[g.rng.Intn(len(g.models))],
			Phases:   g.rng.Intn(2) == 1,
			Faithful: g.rng.Intn(2) == 1,
		}
		mask := 1 + g.rng.Intn(1<<len(presets)-1)
		for i, spec := range presets {
			if mask&(1<<i) != 0 {
				req.Configs = append(req.Configs, spec.Name)
			}
		}
		r := newRequest("/v1/predict", req)
		if !g.used[r.key] {
			r.configs = len(req.Configs)
			return r, true
		}
	}
	return request{}, false
}
