// Cross-validation of the analytic phase replay against the full DES. It
// lives inside the package so it can call phaseBusy, the DES side, directly:
// Phase itself takes the fast path whenever it admits a phase.
package replay

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/fastpath"
	"iophases/internal/trace"
	"iophases/internal/units"
)

// phaseModels are synthetic single-rank phase models covering the
// op-sequence surface the replayer executes: single-op and mixed phases,
// repetition displacement, inter-slot skew (MADBench2's phase 3 shape),
// offset bases, and family repetition scaling. The quick experiment suite
// replays no single-rank phase, so it adds no cases here.
func phaseModels() []*core.PhaseModel {
	mk := func(id int, rep int, weight int64, ops ...core.OpModel) *core.PhaseModel {
		return &core.PhaseModel{ID: id, NP: 1, Rep: rep, Weight: weight, Ops: ops,
			OffsetOK: true}
	}
	w := func(size, disp, skew int64) core.OpModel {
		return core.OpModel{Op: trace.OpWriteAt, Size: size, Disp: disp, Skew: skew}
	}
	r := func(size, disp, skew int64) core.OpModel {
		return core.OpModel{Op: trace.OpReadAt, Size: size, Disp: disp, Skew: skew}
	}
	cases := []*core.PhaseModel{
		mk(0, 8, 8*units.MiB, w(units.MiB, units.MiB, 0)),
		mk(1, 8, 8*units.MiB, r(units.MiB, units.MiB, 0)),
		// Mixed write+read per repetition — the shape IOR cannot replay.
		mk(2, 6, 12*units.MiB, w(units.MiB, 2*units.MiB, 0), r(units.MiB, 2*units.MiB, units.MiB)),
		// Read running two bins ahead of the write (MADBench2 phase 3).
		mk(3, 4, 8*units.MiB, w(units.MiB, units.MiB, 0), r(units.MiB, units.MiB, 2*units.MiB)),
		// Request sizes crossing the server-request clamp.
		mk(4, 3, 24*units.MiB, w(4*units.MiB, 4*units.MiB, 0)),
		// Small requests below every boundary.
		mk(5, 16, units.MiB, w(64*units.KiB, 64*units.KiB, 0)),
		// Zero-size slot mixed in: free on both paths.
		mk(6, 4, 4*units.MiB, w(units.MiB, units.MiB, 0), w(0, 0, 0)),
	}
	// Offset base and family repetition variants.
	fam := mk(7, 4, 4*units.MiB, w(units.MiB, units.MiB, 0))
	fam.OffsetC = 16 * units.MiB
	fam.FamilyID = 1
	fam.FamilyRep = 3
	cases = append(cases, fam)
	return cases
}

// TestReplayPhaseMatchesDES cross-validates fastpath.ReplayPhase against the
// full replayer for every built-in configuration and phase case: when the
// fast path answers, the busy time must be bit-identical to phaseBusy's.
func TestReplayPhaseMatchesDES(t *testing.T) {
	for _, spec := range cluster.Presets() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m := &core.Model{App: "xval", NP: 1, AccessType: "shared"}
			hits := 0
			for _, pm := range phaseModels() {
				fast, ok := fastpath.ReplayPhase(spec, m, pm)
				if !ok {
					continue
				}
				hits++
				if des := phaseBusy(spec, m, pm); fast != des {
					t.Errorf("%s phase %d: fast %v des %v", spec.Name, pm.ID, fast, des)
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

// admissiblePhase is a generated single-rank, independent phase of a model
// with a generated access type — the input class ReplayPhase admits
// statically. Offsets stay non-negative and volumes at a few MiB.
type admissiblePhase struct {
	m  *core.Model
	pm *core.PhaseModel
}

func (admissiblePhase) Generate(r *rand.Rand, _ int) reflect.Value {
	sizes := []int64{0, 4 * units.KiB, 64 * units.KiB, 96 * units.KiB, 256 * units.KiB,
		units.MiB, 4 * units.MiB}
	pm := &core.PhaseModel{
		ID:       r.Intn(8),
		NP:       1,
		Rep:      1 + r.Intn(8),
		OffsetC:  r.Int63n(4) * units.MiB,
		OffsetB:  r.Int63n(3) * units.MiB,
		OffsetOK: true,
	}
	if r.Intn(2) == 0 {
		pm.FamilyID = 1 + r.Intn(3)
		pm.FamilyRep = 1 + r.Intn(3)
	}
	for n := 1 + r.Intn(3); n > 0; n-- {
		op := core.OpModel{Op: trace.OpWriteAt, Size: sizes[r.Intn(len(sizes))]}
		if r.Intn(2) == 0 {
			op.Op = trace.OpReadAt
		}
		op.Disp = op.Size * r.Int63n(4)
		op.Skew = op.Size * r.Int63n(3)
		pm.Ops = append(pm.Ops, op)
		pm.Weight += op.Size * int64(pm.Rep)
	}
	access := "shared"
	if r.Intn(2) == 0 {
		access = "unique"
	}
	return reflect.ValueOf(admissiblePhase{&core.Model{App: "xval", NP: 1, AccessType: access}, pm})
}

// TestReplayPhaseQuickMatchesDES is the generated twin of
// TestReplayPhaseMatchesDES: on every paper configuration, whenever
// ReplayPhase answers a generated single-rank phase, its busy time equals
// the DES replay's.
func TestReplayPhaseQuickMatchesDES(t *testing.T) {
	for i, spec := range cluster.Presets() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			hits := 0
			prop := func(a admissiblePhase) bool {
				fast, ok := fastpath.ReplayPhase(spec, a.m, a.pm)
				if !ok {
					return true
				}
				hits++
				return fast == phaseBusy(spec, a.m, a.pm)
			}
			cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(int64(20261017 + i)))}
			if err := quick.Check(prop, cfg); err != nil {
				t.Error(err)
			}
			if effectiveStripes(spec) == 1 && hits == 0 {
				t.Errorf("%s: no generated phase took the fast path", spec.Name)
			}
		})
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
