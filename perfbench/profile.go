package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// stackSample is one CPU profile sample: function names, innermost first,
// and the number of times the profiler saw that stack.
type stackSample struct {
	Stack []string
	Count int64
}

// readProfile prints the CPU profile at path with the Go toolchain's
// `go tool pprof -traces` and returns its samples.
func readProfile(path string) ([]stackSample, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parseTraces(out)
}

// tracesSeparator opens every sample of `go tool pprof -traces` output.
const tracesSeparator = "-----------+"

// parseTraces reads `go tool pprof -traces -sample_index=samples` output.
// A header precedes the first separator. Each sample then has optional
// label lines ("%10s:  %s") and one frame line per function ("%10s   %s"),
// innermost first, whose first holds the sample count; an inlined frame
// carries an " (inline)" suffix.
func parseTraces(out []byte) ([]stackSample, error) {
	var (
		samples []stackSample
		in      bool // past the first separator
		open    bool // the current sample's count line has been read
	)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, tracesSeparator):
			in, open = true, false
			continue
		case !in || len(line) < 14 || line[10:13] != "   ":
			continue // header or label line
		}
		name := strings.TrimSuffix(strings.TrimSpace(line[13:]), " (inline)")
		if count := strings.TrimSpace(line[:10]); count != "" {
			c, err := strconv.ParseInt(count, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("pprof traces line %d: sample count %q: %v", n, count, err)
			}
			samples = append(samples, stackSample{Count: c})
			open = true
		} else if !open {
			return nil, fmt.Errorf("pprof traces line %d: frame before a sample count", n)
		}
		s := &samples[len(samples)-1]
		s.Stack = append(s.Stack, name)
	}
	return samples, sc.Err()
}

// repoPrefix is the import path prefix of the program's layers.
const repoPrefix = "iophases/internal/"

// packageOf returns the import path of a Go function name such as
// "iophases/internal/des.(*Proc).park" or "net/http.(*conn).serve".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// ownerOf names the layer a sample is charged to. The innermost frame in
// one of the program's packages owns it, so runtime work such as channel
// operations, scheduling or allocation done on behalf of that frame counts
// to its package ("des", "apps/btio"). A sample with no program frame goes
// to the package of its innermost non-runtime frame ("net/http"), or to
// "runtime" when it has none.
func ownerOf(stack []string) string {
	for _, fn := range stack {
		if p := packageOf(fn); strings.HasPrefix(p, repoPrefix) {
			return strings.TrimPrefix(p, repoPrefix)
		}
	}
	for _, fn := range stack {
		if p := packageOf(fn); p != "runtime" && !strings.HasPrefix(p, "runtime/internal") && !strings.HasPrefix(p, "internal/runtime") {
			return p
		}
	}
	return "runtime"
}

// handoffFuncs are name prefixes of the runtime's channel, park/ready and
// scheduler functions: a sample whose runtime frames beneath a des frame
// pass through one of them is DES process hand-off cost.
var handoffFuncs = []string{
	"runtime.chanrecv", "runtime.chansend", "runtime.selectgo", "runtime.recv", "runtime.send",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m", "runtime.mcall",
	"runtime.schedule", "runtime.findRunnable", "runtime.execute", "runtime.casgstatus",
	"runtime.lock2", "runtime.unlock2", "runtime.futex", "runtime.wakep", "runtime.notewakeup",
	"runtime.notesleep", "runtime.stopm", "runtime.startm", "runtime.runqget", "runtime.runqput",
	"runtime.goschedImpl", "runtime.gosched_m",
}

// isHandoff reports whether a des-owned sample is runtime channel or
// scheduler work: some frame below the innermost program frame is one of
// handoffFuncs.
func isHandoff(stack []string) bool {
	for _, fn := range stack {
		if strings.HasPrefix(fn, repoPrefix) {
			return false
		}
		for _, h := range handoffFuncs {
			if strings.HasPrefix(fn, h) {
				return true
			}
		}
	}
	return false
}

// cpuShares folds samples by owner. It returns each owner's share of all
// samples, the share of des-owned hand-off samples, and the sample total
// (the shares' base).
func cpuShares(samples []stackSample) (shares map[string]float64, handoff float64, total int64) {
	counts := map[string]int64{}
	var hand int64
	for _, s := range samples {
		owner := ownerOf(s.Stack)
		counts[owner] += s.Count
		total += s.Count
		if owner == "des" && isHandoff(s.Stack) {
			hand += s.Count
		}
	}
	shares = map[string]float64{}
	if total == 0 {
		return shares, 0, 0
	}
	for owner, n := range counts {
		shares[owner] = float64(n) / float64(total)
	}
	return shares, float64(hand) / float64(total), total
}
