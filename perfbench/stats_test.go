package main

import (
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	s := sortedCopy(seq(20)) // 1..20
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{50, 10}, {95, 19}, {99, 20}, {100, 20}, {5, 1}, {0.1, 1},
	} {
		if got := nearestRank(s, c.p); got != c.want {
			t.Errorf("p%g of 1..20 = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median(seq(5)); got != 3 {
		t.Errorf("median of 1..5 = %g, want 3", got)
	}
	if got := median(seq(4)); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

// TestSummarizeTailRule pins the "at least minBeyond samples beyond" rule:
// the reported tail is the highest candidate percentile that leaves ten
// samples above it, and none is reported below that.
func TestSummarizeTailRule(t *testing.T) {
	for _, c := range []struct {
		n       int
		wantPct float64
	}{
		{10, 0},    // p75 leaves 2 beyond
		{40, 75},   // p75 is rank 30: 10 beyond; p90 leaves 4
		{99, 75},   // p90 is rank 90: 9 beyond
		{100, 90},  // p90 is rank 90: 10 beyond; p95 leaves 5
		{1000, 99}, // p99 leaves 10; p99.9 leaves 1
		{10000, 99.9},
	} {
		s := summarize(seq(c.n))
		if s.N != c.n || s.TailPct != c.wantPct {
			t.Errorf("n=%d: tail p%g with n=%d, want p%g", c.n, s.TailPct, s.N, c.wantPct)
			continue
		}
		if s.TailPct > 0 {
			if beyond := c.n - int(s.Tail); beyond < minBeyond {
				t.Errorf("n=%d: p%g = %g leaves %d beyond", c.n, s.TailPct, s.Tail, beyond)
			}
		}
		if s.Min != 1 || s.Max != float64(c.n) {
			t.Errorf("n=%d: range %g..%g", c.n, s.Min, s.Max)
		}
	}
}

func TestAtPercentileCounts(t *testing.T) {
	got := atPercentile("hit_p99_us", seq(1000), 99, "us")
	if want := "hit_p99_us 990 us (n=1000, 10 beyond)"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	got = atPercentile("miss_p95_ms", seq(100), 95, "ms")
	if !strings.HasPrefix(got, "miss_p95_ms 95 ms (n=100, 5 beyond); fewer than 10 beyond") {
		t.Errorf("an under-sampled percentile is not flagged: %q", got)
	}
	if got := atPercentile("x", nil, 50, "s"); got != "x: no samples" {
		t.Errorf("got %q", got)
	}
}

func TestDescribePrintsCount(t *testing.T) {
	if got := describe(summarize(seq(3)), "s"); !strings.Contains(got, "(n=3; too few samples") {
		t.Errorf("got %q", got)
	}
	if got := describe(summarize(seq(100)), "ms"); !strings.Contains(got, "p90 90 ms") || !strings.Contains(got, "(n=100)") {
		t.Errorf("got %q", got)
	}
}

func TestPeakIn(t *testing.T) {
	ms := time.Millisecond
	samples := []heapSample{{0, 5}, {10 * ms, 9}, {20 * ms, 3}, {30 * ms, 7}, {40 * ms, 1}}
	for _, c := range []struct {
		from, to time.Duration
		want     uint64
	}{
		{0, 40 * ms, 9},
		{12 * ms, 18 * ms, 9}, // no sample inside: the one before still holds
		{15 * ms, 30 * ms, 9}, // the sample before from counts
		{20 * ms, 35 * ms, 7}, // a sample at from is inside
		{45 * ms, 50 * ms, 1}, // after the last sample
		{-ms, -ms / 2, 5},     // before the first: the first
	} {
		if got := peakIn(samples, c.from, c.to); got != c.want {
			t.Errorf("peakIn(%v, %v) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}
