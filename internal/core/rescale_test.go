package core

import (
	"testing"

	"iophases/internal/apps/btio"
	"iophases/internal/cluster"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/runner"
	"iophases/internal/units"
)

func traceBTIOModel(t *testing.T, np int, class btio.Class) *Model {
	t.Helper()
	params := btio.Default(class)
	res := runner.Run(cluster.ConfigA(), np, "btio", func(sys *mpiio.System) func(*mpi.Rank) {
		return btio.Program(sys, params)
	}, runner.Options{Trace: true})
	return mustValidate(t, Build(res.Set))
}

// TestRescaleMatchesActualTrace is the headline: the 4-process BT-IO model
// rescaled to 16 processes must equal the model actually traced at 16.
func TestRescaleMatchesActualTrace(t *testing.T) {
	m4 := traceBTIOModel(t, 4, btio.ClassW)
	m16, err := m4.Rescale(16)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, m16)
	actual := traceBTIOModel(t, 16, btio.ClassW)
	if m16.NP != 16 || len(m16.Phases) != len(actual.Phases) {
		t.Fatalf("shape: np=%d phases=%d", m16.NP, len(m16.Phases))
	}
	for i, pm := range m16.Phases {
		am := actual.Phases[i]
		if pm.Weight != am.Weight {
			t.Fatalf("phase %d weight %d vs %d", pm.ID, pm.Weight, am.Weight)
		}
		if pm.RequestSize() != am.RequestSize() {
			t.Fatalf("phase %d rs %d vs %d", pm.ID, pm.RequestSize(), am.RequestSize())
		}
		if pm.OffsetA != am.OffsetA || pm.OffsetB != am.OffsetB ||
			pm.OffsetC != am.OffsetC || pm.OffsetD != am.OffsetD {
			t.Fatalf("phase %d offsets %+v vs %+v", pm.ID, pm.OffsetFn(), am.OffsetFn())
		}
		if pm.Rep != am.Rep || pm.NP != am.NP {
			t.Fatalf("phase %d rep/np", pm.ID)
		}
	}
}

func TestRescaleIdentity(t *testing.T) {
	m := traceBTIOModel(t, 4, btio.ClassW)
	same, err := m.Rescale(4)
	if err != nil {
		t.Fatal(err)
	}
	if !same.SameShape(m) {
		t.Fatal("identity rescale changed the model")
	}
}

func TestRescalePreservesVolume(t *testing.T) {
	m := traceBTIOModel(t, 4, btio.ClassW)
	w4, r4 := m.TotalBytes()
	m9, err := m.Rescale(9)
	if err != nil {
		t.Fatal(err)
	}
	w9, r9 := m9.TotalBytes()
	if w4 != w9 || r4 != r9 {
		t.Fatalf("volume changed: %d/%d vs %d/%d", w4, r4, w9, r9)
	}
}

func TestRescaleRejectsIndivisible(t *testing.T) {
	m := traceBTIOModel(t, 4, btio.ClassW)
	// ClassW dump bytes = 24³·40 = 552960·... per-phase weight must
	// divide by np; 7 does not divide it evenly in rs units.
	if _, err := m.Rescale(7); err == nil {
		t.Fatal("indivisible np accepted")
	}
	if _, err := m.Rescale(0); err == nil {
		t.Fatal("np=0 accepted")
	}
}

func TestRescaledModelPredicts(t *testing.T) {
	// The rescaled model must be usable downstream: replay specs stay
	// consistent (block·np == weight).
	m4 := traceBTIOModel(t, 4, btio.ClassW)
	m16, err := m4.Rescale(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, pm := range m16.Phases {
		rs := pm.Replay(m16.AccessType)
		if rs.BlockPerProc*int64(rs.NP) != pm.Weight {
			t.Fatalf("phase %d replay inconsistent", pm.ID)
		}
		if rs.Transfer != pm.RequestSize() {
			t.Fatalf("phase %d transfer", pm.ID)
		}
	}
	_ = units.MiB
}

func TestDiffReportsDivergences(t *testing.T) {
	a := traceBTIOModel(t, 4, btio.ClassW)
	b := traceBTIOModel(t, 4, btio.ClassW)
	if d := a.Diff(b); len(d) != 0 {
		t.Fatalf("identical models diff: %v", d)
	}
	b.Phases[3].Weight += 42
	d := a.Diff(b)
	if len(d) != 1 {
		t.Fatalf("diff %v", d)
	}
	b.NP = 9
	if len(a.Diff(b)) != 2 {
		t.Fatalf("np divergence missed: %v", a.Diff(b))
	}
}
