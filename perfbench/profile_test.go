package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

const (
	desPark  = "iophases/internal/des.(*Proc).park"
	desRun   = "iophases/internal/des.(*Engine).Run"
	netSend  = "iophases/internal/netsim.(*Fabric).Send"
	mainMain = "main.main"
)

// handTraces is a profile as `go tool pprof -traces -sample_index=samples`
// prints it: a header, then per sample its label lines and its frames,
// innermost first, the first one holding the count.
const handTraces = `File: perfbench
Type: samples
Duration: 1s, Total samples = 20
-----------+-------------------------------------------------------
         5   runtime.chanrecv
             runtime.chanrecv1
             ` + desPark + `
             ` + desRun + `
             ` + mainMain + `
-----------+-------------------------------------------------------
         2   runtime.lock2
             runtime.casgstatus
             ` + desPark + `
             ` + desRun + `
-----------+-------------------------------------------------------
         3   ` + netSend + ` (inline)
             ` + desRun + `
             ` + mainMain + `
-----------+-------------------------------------------------------
         2   runtime.mallocgc
             ` + desRun + `
             ` + mainMain + `
-----------+-------------------------------------------------------
      role:  server
         4   runtime.memmove
             encoding/json.(*encodeState).marshal
             net/http.(*conn).serve
-----------+-------------------------------------------------------
         4   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`

func TestParseHandBuiltTraces(t *testing.T) {
	got, err := parseTraces([]byte(handTraces))
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", desPark, desRun, mainMain}, 5},
		{[]string{"runtime.lock2", "runtime.casgstatus", desPark, desRun}, 2},
		{[]string{netSend, desRun, mainMain}, 3}, // netsim inlined into des
		{[]string{"runtime.mallocgc", desRun, mainMain}, 2},
		{[]string{"runtime.memmove", "encoding/json.(*encodeState).marshal", "net/http.(*conn).serve"}, 4},
		{[]string{"runtime.gcBgMarkWorker"}, 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed\n%v\nwant\n%v", got, want)
	}
}

func TestParseMalformedTraces(t *testing.T) {
	for name, text := range map[string]string{
		"count":            "-----------+---\n       abc   runtime.main\n",
		"frame before one": "-----------+---\n             runtime.main\n",
	} {
		if _, err := parseTraces([]byte(text)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

//go:noinline
func spinForProfile(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i % 7
	}
	return s
}

// TestReadRealProfile folds a CPU profile of this test through the Go
// toolchain, so a change in the printed format shows here.
func TestReadRealProfile(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command on PATH")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		spinForProfile(100_000)
	}
	pprof.StopCPUProfile()
	f.Close()
	samples, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	spun := false
	for _, s := range samples {
		if s.Count <= 0 || len(s.Stack) == 0 {
			t.Fatalf("empty sample %v", s)
		}
		spun = spun || strings.HasSuffix(s.Stack[0], ".spinForProfile")
	}
	if !spun {
		t.Errorf("no sample in spinForProfile among %d samples", len(samples))
	}
}

// TestFoldByPackage pins the attribution rule: the innermost program frame
// owns a sample, runtime frames beneath it count to its package, and only
// des-owned channel and scheduler work is hand-off.
func TestFoldByPackage(t *testing.T) {
	samples, err := parseTraces([]byte(handTraces))
	if err != nil {
		t.Fatal(err)
	}
	shares, handoff, total := cpuShares(samples)
	if total != 20 {
		t.Fatalf("total %d, want 20", total)
	}
	want := map[string]float64{
		"des":           9.0 / 20, // both hand-off stacks and mallocgc
		"netsim":        3.0 / 20, // the inlined frame is innermost
		"encoding/json": 4.0 / 20, // no program frame: innermost non-runtime
		"runtime":       4.0 / 20,
	}
	if len(shares) != len(want) {
		t.Errorf("owners %v, want %v", shares, want)
	}
	for owner, w := range want {
		if math.Abs(shares[owner]-w) > 1e-12 {
			t.Errorf("%s share %g, want %g", owner, shares[owner], w)
		}
	}
	if math.Abs(handoff-7.0/20) > 1e-12 {
		t.Errorf("hand-off share %g, want %g", handoff, 7.0/20)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		desPark:                           "iophases/internal/des",
		"net/http.(*conn).serve":          "net/http",
		"runtime.chanrecv":                "runtime",
		"iophases/internal/apps/btio.Run": "iophases/internal/apps/btio",
		"main.main.func1":                 "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
