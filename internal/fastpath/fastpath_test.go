// Cross-validation of the analytic IOR mirror against the full DES, from
// an external test package so the spec list can include predict's what-if
// variants (predict reaches this package through simcache).
package fastpath_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/fastpath"
	"iophases/internal/faults"
	"iophases/internal/ior"
	"iophases/internal/predict"
	"iophases/internal/trace"
	"iophases/internal/units"
)

// iorCases is the parameter corpus: every axis of the Table III surface an
// admissible (np=1, independent) run can exercise, with sizes crossing the
// server-request, stripe-unit and flush-chunk boundaries, followed by every
// run the quick experiment suite admits (the charz sweep's 64 MiB blocks
// and the single-rank what-if phases' tiny replays).
func iorCases() []ior.Params {
	return []ior.Params{
		{NP: 1, BlockSize: 4 * units.MiB, Transfer: 256 * units.KiB, Segments: 2, DoWrite: true, DoRead: true, Fsync: true},
		{NP: 1, BlockSize: 8 * units.MiB, Transfer: units.MiB, Segments: 1, DoWrite: true, Fsync: true},
		{NP: 1, BlockSize: 2 * units.MiB, Transfer: 64 * units.KiB, Segments: 3, DoWrite: true, DoRead: true},
		{NP: 1, BlockSize: 4 * units.MiB, Transfer: 128 * units.KiB, Segments: 2, DoWrite: true, DoRead: true, Fsync: true, RandomOrder: true, Seed: 7},
		{NP: 1, BlockSize: 4 * units.MiB, Transfer: 512 * units.KiB, Segments: 2, DoWrite: true, DoRead: true, Fsync: true, Interleaved: true},
		{NP: 1, BlockSize: 4 * units.MiB, Transfer: 256 * units.KiB, Segments: 1, DoWrite: true, DoRead: true, Fsync: true, FilePerProc: true},
		{NP: 1, BlockSize: 16 * units.MiB, Transfer: 4 * units.MiB, Segments: 1, DoWrite: true, DoRead: true, Fsync: true, ReorderRead: true},
		{NP: 1, BlockSize: 1 * units.MiB, Transfer: 16 * units.KiB, Segments: 1, DoWrite: false, DoRead: true},
		{NP: 1, BlockSize: 3 * units.MiB, Transfer: 96 * units.KiB, Segments: 2, DoWrite: true, DoRead: true, Fsync: true},
		{NP: 1, BlockSize: 64 * units.MiB, Transfer: 256 * units.KiB, Segments: 1, DoWrite: true, DoRead: true, Fsync: true},
		{NP: 1, BlockSize: 64 * units.MiB, Transfer: 4 * units.MiB, Segments: 1, DoWrite: true, DoRead: true, Fsync: true},
		{NP: 1, BlockSize: 64 * units.MiB, Transfer: 32 * units.MiB, Segments: 1, DoWrite: true, DoRead: true, Fsync: true},
		{NP: 1, BlockSize: 2048, Transfer: 2048, Segments: 1, DoWrite: true, Fsync: true, FileName: "/ior.phase1"},
		{NP: 1, BlockSize: 4096, Transfer: 1024, Segments: 1, DoWrite: true, Fsync: true, FileName: "/ior.phase2"},
		{NP: 1, BlockSize: 1024, Transfer: 1024, Segments: 1, DoWrite: true, Fsync: true, FileName: "/ior.phase3"},
	}
}

// xvalSpecs are the four paper configurations plus configA's standard
// what-if variants, which include the network and device variants the
// quick experiment suite prices on the fast path.
func xvalSpecs() []cluster.Spec {
	specs := cluster.Presets()
	for _, v := range predict.StandardVariants(cluster.ConfigA()) {
		specs = append(specs, v.Spec)
	}
	return specs
}

// TestRunIORMatchesDES cross-validates the analytic result against the full
// DES for every configuration and every corpus case: when the fast path
// answers, the Result must be bit-identical.
func TestRunIORMatchesDES(t *testing.T) {
	for _, spec := range xvalSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			hits := 0
			for _, p := range iorCases() {
				fast, ok := fastpath.RunIOR(spec, p)
				if !ok {
					continue
				}
				hits++
				des := ior.Run(spec, p)
				if !reflect.DeepEqual(fast, des) {
					t.Errorf("%s %+v:\n fast %+v\n  des %+v", spec.Name, p, fast, des)
				}
			}
			admissible := effectiveStripes(spec) == 1
			if admissible && hits == 0 {
				t.Errorf("%s: no fast-path hits on an admissible configuration", spec.Name)
			}
			if !admissible && hits != 0 {
				t.Errorf("%s: %d hits on an inadmissible configuration", spec.Name, hits)
			}
		})
	}
}

// admissibleIOR is a generated np=1, independent ior.Params that passes
// Validate — the input class RunIOR admits statically. Volumes stay at a
// few MiB so the DES side of each check is quick.
type admissibleIOR struct{ p ior.Params }

func (admissibleIOR) Generate(r *rand.Rand, _ int) reflect.Value {
	transfers := []int64{4 * units.KiB, 16 * units.KiB, 64 * units.KiB, 96 * units.KiB,
		256 * units.KiB, units.MiB, 4 * units.MiB}
	tx := transfers[r.Intn(len(transfers))]
	maxChunks := 8 * units.MiB / tx
	if maxChunks > 64 {
		maxChunks = 64
	}
	dir := r.Intn(3) // write, read, or both
	p := ior.Params{
		NP:          1,
		Transfer:    tx,
		BlockSize:   tx * (1 + r.Int63n(maxChunks)),
		Segments:    1 + r.Intn(3),
		FilePerProc: r.Intn(2) == 0,
		Interleaved: r.Intn(2) == 0,
		RandomOrder: r.Intn(3) == 0,
		Seed:        r.Int63n(1000),
		DoWrite:     dir != 1,
		DoRead:      dir != 0,
		ReorderRead: r.Intn(2) == 0,
		Fsync:       r.Intn(2) == 0,
	}
	return reflect.ValueOf(admissibleIOR{p})
}

// TestRunIORQuickMatchesDES is the generated twin of TestRunIORMatchesDES:
// on every paper configuration, whenever RunIOR answers a generated
// admissible run, its Result is reflect.DeepEqual to ior.Run's.
func TestRunIORQuickMatchesDES(t *testing.T) {
	for i, spec := range cluster.Presets() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			hits := 0
			prop := func(a admissibleIOR) bool {
				fast, ok := fastpath.RunIOR(spec, a.p)
				if !ok {
					return true
				}
				hits++
				return reflect.DeepEqual(fast, ior.Run(spec, a.p))
			}
			cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(int64(20261017 + i)))}
			if err := quick.Check(prop, cfg); err != nil {
				t.Error(err)
			}
			if effectiveStripes(spec) == 1 && hits == 0 {
				t.Errorf("%s: no generated run took the fast path", spec.Name)
			}
		})
	}
}

// TestFaultPresetsBail pins the admission rule's first gate: any fault
// schedule — all five built-in presets — makes both entry points bail, so
// degraded-mode analysis always runs the full DES.
func TestFaultPresetsBail(t *testing.T) {
	names := faults.PresetNames()
	if len(names) != 5 {
		t.Fatalf("expected 5 fault presets, got %v", names)
	}
	p := ior.Params{NP: 1, BlockSize: units.MiB, Transfer: 256 * units.KiB,
		Segments: 1, DoWrite: true, DoRead: true, Fsync: true}
	m := &core.Model{App: "xval", NP: 1, AccessType: "shared"}
	pm := &core.PhaseModel{ID: 0, NP: 1, Rep: 8, Weight: 8 * units.MiB, OffsetOK: true,
		Ops: []core.OpModel{{Op: trace.OpWriteAt, Size: units.MiB, Disp: units.MiB}}}
	for _, name := range names {
		spec := cluster.ConfigA()
		sched, ok := faults.Preset(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		spec.Faults = sched
		if _, ok := fastpath.RunIOR(spec, p); ok {
			t.Errorf("RunIOR admitted faulted spec (preset %s)", name)
		}
		if _, ok := fastpath.ReplayPhase(spec, m, pm); ok {
			t.Errorf("ReplayPhase admitted faulted spec (preset %s)", name)
		}
	}
}

func effectiveStripes(spec cluster.Spec) int {
	n := spec.Storage.IONodes
	sc := spec.Storage.FileStripeCount
	if sc <= 0 || sc > n {
		return n
	}
	return sc
}
