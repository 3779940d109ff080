package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"iophases/internal/units"
)

// textEncoder streams events into the Figure 2 column format: header on
// creation, rows in bounded chunks, buffered flush on close.
type textEncoder struct {
	bw  *bufio.Writer
	err error
}

func newTextEncoder(w io.Writer) *textEncoder {
	e := &textEncoder{bw: bufio.NewWriter(w)}
	_, e.err = fmt.Fprintf(e.bw, "%-4s %-4s %-26s %-14s %-8s %-12s %-12s %s\n",
		"IdP", "IdF", "MPI-Operation", "Offset", "tick", "RequestSize", "time", "duration")
	return e
}

func (e *textEncoder) writeEvents(events []Event) {
	if e.err != nil {
		return
	}
	for _, ev := range events {
		if _, err := fmt.Fprintf(e.bw, "%-4d %-4d %-26s %-14d %-8d %-12d %-12.6f %.6f\n",
			ev.Rank, ev.File, ev.Op, ev.Offset, ev.Tick, ev.Size,
			ev.Time.Seconds(), ev.Duration.Seconds()); err != nil {
			e.err = err
			return
		}
	}
}

func (e *textEncoder) close() error {
	if e.err != nil {
		return e.err
	}
	return e.bw.Flush()
}

// WriteText renders one rank's trace in the column format of Figure 2.
func WriteText(w io.Writer, events []Event) error {
	e := newTextEncoder(w)
	e.writeEvents(events)
	return e.close()
}

// maxLineLen bounds one trace line; the widest legitimate row (all int64
// fields at full width) is well under 1 KiB, so 1 MiB means corrupt input.
const maxLineLen = 1024 * 1024

// parseTextLine decodes one WriteText row. ok is false for blank and header
// lines. wantRank >= 0 additionally requires the row's IdP to match the
// per-rank file being read — a mismatched row would silently corrupt rank
// attribution downstream (phases group by rank).
func parseTextLine(text string, line, wantRank int) (ev Event, ok bool, err error) {
	text = strings.TrimSpace(text)
	if text == "" || strings.HasPrefix(text, "IdP") {
		return Event{}, false, nil
	}
	fields := strings.Fields(text)
	if len(fields) != 8 {
		return Event{}, false, fmt.Errorf("trace: line %d has %d fields, want 8", line, len(fields))
	}
	if ev.Rank, err = strconv.Atoi(fields[0]); err != nil {
		return Event{}, false, fmt.Errorf("trace: line %d IdP: %v", line, err)
	}
	if wantRank >= 0 && ev.Rank != wantRank {
		return Event{}, false, fmt.Errorf("trace: line %d: IdP %d does not match rank %d of this trace file", line, ev.Rank, wantRank)
	}
	if ev.File, err = strconv.Atoi(fields[1]); err != nil {
		return Event{}, false, fmt.Errorf("trace: line %d IdF: %v", line, err)
	}
	ev.Op = Op(fields[2])
	if ev.Offset, err = strconv.ParseInt(fields[3], 10, 64); err != nil {
		return Event{}, false, fmt.Errorf("trace: line %d offset: %v", line, err)
	}
	if ev.Tick, err = strconv.ParseInt(fields[4], 10, 64); err != nil {
		return Event{}, false, fmt.Errorf("trace: line %d tick: %v", line, err)
	}
	if ev.Size, err = strconv.ParseInt(fields[5], 10, 64); err != nil {
		return Event{}, false, fmt.Errorf("trace: line %d size: %v", line, err)
	}
	tsec, err := strconv.ParseFloat(fields[6], 64)
	if err != nil {
		return Event{}, false, fmt.Errorf("trace: line %d time: %v", line, err)
	}
	ev.Time = units.FromSeconds(tsec)
	dsec, err := strconv.ParseFloat(fields[7], 64)
	if err != nil {
		return Event{}, false, fmt.Errorf("trace: line %d duration: %v", line, err)
	}
	ev.Duration = units.FromSeconds(dsec)
	return ev, true, nil
}

// scanErr wraps a scanner failure with position context; bufio reports an
// overlong line as the bare ErrTooLong, which is useless without knowing
// where in a multi-gigabyte trace it happened.
func scanErr(err error, line int) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("trace: line %d exceeds %d bytes: %w", line, maxLineLen, err)
	}
	return fmt.Errorf("trace: line %d: %w", line, err)
}

// ParseText reads a trace rendered by WriteText. Rows may carry any IdP;
// use ParseTextRank when reading a per-rank trace file.
func ParseText(r io.Reader) ([]Event, error) {
	return ParseTextRank(r, -1)
}

// ParseTextRank reads a per-rank trace rendered by WriteText, rejecting
// rows whose IdP differs from want (want < 0 disables the check).
func ParseTextRank(r io.Reader, want int) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, maxLineLen), maxLineLen)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		ev, ok, err := parseTextLine(sc.Text(), line, want)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, ev)
		}
	}
	return out, scanErr(sc.Err(), line+1)
}

// setHeader is the JSON sidecar saved next to the per-rank trace files.
type setHeader struct {
	App    string     `json:"app"`
	Config string     `json:"config"`
	NP     int        `json:"np"`
	Files  []FileMeta `json:"files"`
}

// saveMeta writes the meta.json sidecar.
func saveMeta(dir string, hdr setHeader) error {
	raw, err := json.MarshalIndent(hdr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "meta.json"), raw, 0o644)
}

// Save writes a Set to dir: meta.json plus trace.<rank>.txt per rank.
func (s *Set) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := saveMeta(dir, setHeader{s.App, s.Config, s.NP, s.Files}); err != nil {
		return err
	}
	for p := 0; p < s.NP; p++ {
		f, err := os.Create(rankPath(dir, p, FormatText))
		if err != nil {
			return err
		}
		werr := WriteText(f, s.Events[p])
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
	}
	return nil
}

// loadMeta reads, decodes and validates dir's meta.json sidecar. A rank
// count below one is rejected here, before OpenDir sizes anything by it.
func loadMeta(dir string) (setHeader, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return setHeader{}, err
	}
	var hdr setHeader
	if err := json.Unmarshal(raw, &hdr); err != nil {
		return setHeader{}, fmt.Errorf("trace: meta.json: %v", err)
	}
	if hdr.NP < 1 {
		return setHeader{}, fmt.Errorf("trace: meta.json: np=%d (want at least 1)", hdr.NP)
	}
	return hdr, nil
}

// Load reads a Set saved by Save or SaveBinary (per-rank format
// auto-detected, binary preferred when both exist).
func Load(dir string) (*Set, error) {
	src, err := OpenDir(dir)
	if err != nil {
		return nil, err
	}
	return ReadSet(src)
}
