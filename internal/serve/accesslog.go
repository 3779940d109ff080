package serve

import (
	"encoding/json"
	"io"
	"sync"
)

// AccessEntry is one structured access-log record, rendered as a single
// JSON line. Field order is the struct order, so the log format is stable
// and greppable; timestamps are wall-clock (RFC 3339, from the clock seam)
// because the log describes the server, not the simulation — nothing here
// ever reaches a response body.
type AccessEntry struct {
	TS     string `json:"ts"`
	ID     string `json:"id"`
	Method string `json:"method"`
	Path   string `json:"path"`
	Status int    `json:"status"`
	Bytes  int    `json:"bytes"`
	DurUS  int64  `json:"dur_us"`
	// Query attribution (POST /v1/* only).
	FP        string `json:"fp,omitempty"`        // query fingerprint (first 16 hex of SHA-256)
	Cache     string `json:"cache,omitempty"`     // "hit" (served from the response cache) or "miss"
	Coalesced bool   `json:"coalesced,omitempty"` // rode another request's in-flight computation
	Fastpath  string `json:"fastpath,omitempty"`  // Options.FastPath, a caller-set label
	QueueUS   int64  `json:"queue_us,omitempty"`  // admission wait, microseconds
	Err       string `json:"err,omitempty"`       // error body summary for non-2xx
}

// accessLogger serializes JSON access-log lines onto one writer. A nil
// logger (no -access-log) drops entries at the cost of one nil check.
type accessLogger struct {
	mu sync.Mutex
	w  io.Writer
}

func newAccessLogger(w io.Writer) *accessLogger {
	if w == nil {
		return nil
	}
	return &accessLogger{w: w}
}

// log writes one entry as a JSON line. Marshal errors are impossible for
// AccessEntry (plain scalar fields); write errors are swallowed — a dying
// log sink must not fail requests.
func (l *accessLogger) log(e AccessEntry) {
	if l == nil {
		return
	}
	raw, err := json.Marshal(e)
	if err != nil {
		return
	}
	raw = append(raw, '\n')
	l.mu.Lock()
	_, _ = l.w.Write(raw)
	l.mu.Unlock()
}
