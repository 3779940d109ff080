package main

import (
	"fmt"
	"reflect"
	"testing"

	"iophases/internal/cluster"
	"iophases/internal/serve"
)

func testPopular() []request {
	return []request{
		newRequest("/v1/predict", serve.PredictRequest{Model: model16}),
		newRequest("/v1/explore", serve.ExploreRequest{Model: modelPop, Base: "configA"}),
	}
}

func testModels(caller, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf("m%d-%d", caller, i))
	}
	return out
}

// TestGeneratorClassifiesHits checks the hit/miss rule on the generated
// stream: a request is a miss exactly when its caller has not sent the
// body before (the popular bodies count as sent at set-up), and every
// batch holds batchMisses misses.
func TestGeneratorClassifiesHits(t *testing.T) {
	g := newGenerator(7, 0, testPopular(), testModels(0, 6))
	sent := map[string]bool{}
	for _, r := range testPopular() {
		sent[r.path+string(r.body)] = true
	}
	for k := 0; k < 20; k++ {
		batch, ok := g.batch(k)
		if !ok {
			t.Fatalf("batch %d: space ran out", k)
		}
		if len(batch) != batchLen {
			t.Fatalf("batch %d has %d requests", k, len(batch))
		}
		misses := 0
		for i, r := range batch {
			id := r.path + string(r.body)
			if r.miss == sent[id] {
				t.Errorf("batch %d request %d %s: miss=%v but sent before=%v", k, i, id, r.miss, sent[id])
			}
			if r.miss {
				misses++
			}
			sent[id] = true
		}
		if misses != batchMisses {
			t.Errorf("batch %d has %d misses, want %d", k, misses, batchMisses)
		}
	}
}

// TestGeneratorDeterministic checks that a batch depends only on the seed,
// the caller and its index.
func TestGeneratorDeterministic(t *testing.T) {
	a := newGenerator(3, 1, testPopular(), testModels(1, 6))
	b := newGenerator(3, 1, testPopular(), testModels(1, 6))
	for k := 0; k < 10; k++ {
		ba, _ := a.batch(k)
		bb, _ := b.batch(k)
		if !reflect.DeepEqual(ba, bb) {
			t.Fatalf("batch %d differs between two generators of one seed", k)
		}
	}
	again, _ := a.batch(4)
	first, _ := b.batch(4)
	if !reflect.DeepEqual(again, first) {
		t.Error("asking for an earlier batch again gives another batch")
	}
	other := newGenerator(4, 1, testPopular(), testModels(1, 6))
	bo, _ := other.batch(0)
	ba, _ := a.batch(0)
	if reflect.DeepEqual(bo, ba) {
		t.Error("another seed gives the same first batch")
	}
}

// TestGeneratorCallersDisjoint checks that no caller's new body is one the
// other caller sends as new, so a miss is cold for the server too.
func TestGeneratorCallersDisjoint(t *testing.T) {
	newBodies := func(caller int) map[string]bool {
		g := newGenerator(1, caller, testPopular(), testModels(caller, 6))
		out := map[string]bool{}
		for k := 0; k < 20; k++ {
			batch, _ := g.batch(k)
			for _, r := range batch {
				if r.miss {
					out[r.key] = true
				}
			}
		}
		return out
	}
	zero, one := newBodies(0), newBodies(1)
	for key := range zero {
		if one[key] {
			t.Fatalf("body %s is new to both callers", key)
		}
	}
}

// TestGeneratorExhausts checks that a caller with a small new-body space
// stops with false instead of repeating or looping.
func TestGeneratorExhausts(t *testing.T) {
	g := newGenerator(1, 0, testPopular(), testModels(0, 1))
	k := 0
	for ; k < 100; k++ {
		if _, ok := g.batch(k); !ok {
			break
		}
	}
	// One model has 8 explore bodies, one per batch.
	if k != 8 {
		t.Fatalf("space ran out after %d batches, want 8", k)
	}
	if _, ok := g.batch(k + 1); ok {
		t.Error("a spent generator produced another batch")
	}
}

// TestWhatifBodiesFitCache checks that the distinct bodies of a run, the
// popular ones and every caller's new ones, stay under half the server's
// response cache bound, so the cache never clears during a run.
func TestWhatifBodiesFitCache(t *testing.T) {
	popular := 4 + len(cluster.Presets())
	if n := popular + 2*whatifBatches*batchMisses; 2*n > serveCacheCap {
		t.Errorf("a run sends up to %d distinct bodies, more than half of the cache bound %d", n, serveCacheCap)
	}
	g := newGenerator(1, 0, testPopular(), testModels(0, np1PerCaller))
	if _, ok := g.batch(whatifBatches - 1); !ok {
		t.Errorf("%d models give fewer than %d batches", np1PerCaller, whatifBatches)
	}
}

// capped is a workload whose passes take no time and are capped.
type capped struct{ *whatif }

func (capped) callers() int             { return 2 }
func (capped) maxPasses() int           { return 3 }
func (capped) pass(_, _ int) passResult { return passResult{items: 1, attempted: 1} }

// TestRunWindowStopsAtMaxPasses checks that a caller stops at the pass
// cap however much time is left.
func TestRunWindowStopsAtMaxPasses(t *testing.T) {
	next := []int{0, 1}
	win := runWindow(capped{}, 60, 0, next, false)
	if win.items != 5 || next[0] != 3 || next[1] != 3 {
		t.Errorf("ran %d passes, callers ended at %v; want 5 passes ending at [3 3]", win.items, next)
	}
}
