package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the ceil(p/100·n)-th smallest sample.
func nearestRank(sorted []float64, p float64) float64 {
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples. The tolerance keeps a product such as 99.9% of 10000, which
// binary floating point puts a hair above 9990, from rounding up a rank.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentiles are the candidates for a reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie above a reported tail percentile
// for it to mean anything.
const minBeyond = 10

// summary is a timing distribution reduced to what the benchmark reports:
// the median, the highest candidate percentile that leaves at least
// minBeyond samples above it, and the sample count.
type summary struct {
	N       int
	P50     float64
	TailPct float64 // 0 when no candidate percentile has minBeyond samples beyond it
	Tail    float64
	Min     float64
	Max     float64
}

func summarize(xs []float64) summary {
	sum := summary{N: len(xs)}
	if len(xs) == 0 {
		return sum
	}
	s := sortedCopy(xs)
	sum.P50, sum.Min, sum.Max = median(s), s[0], s[len(s)-1]
	for _, p := range tailPercentiles {
		if len(s)-rankOf(len(s), p) >= minBeyond {
			sum.TailPct, sum.Tail = p, nearestRank(s, p)
			break
		}
	}
	return sum
}

// atPercentile renders the p-th nearest-rank percentile of xs as a table
// line with the sample count and the number of samples beyond it, flagged
// when fewer than minBeyond lie beyond.
func atPercentile(name string, xs []float64, p float64, unit string) string {
	n := len(xs)
	if n == 0 {
		return fmt.Sprintf("%s: no samples", name)
	}
	beyond := n - rankOf(n, p)
	line := fmt.Sprintf("%s %.6g %s (n=%d, %d beyond)", name, nearestRank(sortedCopy(xs), p), unit, n, beyond)
	if beyond < minBeyond {
		line += fmt.Sprintf("; fewer than %d beyond, too few samples for this percentile", minBeyond)
	}
	return line
}
