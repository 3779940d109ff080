package main

import (
	"sync/atomic"
	"time"

	"iophases/internal/trace"
)

// decodeStats accumulates what a timedSource observed. Ranks are read
// concurrently by the extraction pipeline, so every field is atomic.
type decodeStats struct {
	readNS atomic.Int64 // time spent inside Reader.Read, summed over readers
	events atomic.Int64 // events returned by Read
	opens  atomic.Int64 // OpenRank calls; beyond the rank count they are rescans
}

// timedSource wraps a trace.Source so that every Reader.Read is timed and
// every rank open counted. It passes events through untouched, so an
// extraction over it yields the same model as over the wrapped source.
type timedSource struct {
	trace.Source
	stats *decodeStats
}

func (s timedSource) OpenRank(p int) (trace.Reader, error) {
	r, err := s.Source.OpenRank(p)
	if err != nil {
		return nil, err
	}
	s.stats.opens.Add(1)
	return timedReader{Reader: r, stats: s.stats}, nil
}

type timedReader struct {
	trace.Reader
	stats *decodeStats
}

func (r timedReader) Read(buf []trace.Event) (int, error) {
	start := time.Now()
	n, err := r.Reader.Read(buf)
	r.stats.readNS.Add(int64(time.Since(start)))
	r.stats.events.Add(int64(n))
	return n, err
}
