package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iophases/internal/apps/btio"
	"iophases/internal/apps/madbench"
	"iophases/internal/cluster"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/runner"
	"iophases/internal/units"
)

// traceMadbench runs MADBench2 (paper parameters scaled by f) on spec and
// returns the extracted model.
func traceMadbench(t *testing.T, spec cluster.Spec, np int, rs int64) *Model {
	t.Helper()
	params := madbench.Default()
	params.RS = rs
	res := runner.Run(spec, np, "madbench2", func(sys *mpiio.System) func(*mpi.Rank) {
		return madbench.Program(sys, params)
	}, runner.Options{Trace: true})
	return mustValidate(t, Build(res.Set))
}

// mustValidate fails the test unless the extracted model passes Validate:
// extraction must never build a model that Load would reject.
func mustValidate(t *testing.T, m *Model) *Model {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatalf("extracted model fails Validate: %v", err)
	}
	return m
}

func TestMadbenchModelMatchesTableVIII(t *testing.T) {
	// Full paper scale: 16 processes, 32 MiB requests, shared file.
	m := traceMadbench(t, cluster.ConfigA(), 16, 32*units.MiB)
	if len(m.Phases) != 5 {
		t.Fatalf("phases = %d, want 5\n%s", len(m.Phases), m)
	}
	wantWeight := []int64{4 * units.GiB, 1 * units.GiB, 6 * units.GiB, 1 * units.GiB, 4 * units.GiB}
	wantRep := []int{8, 2, 6, 2, 8}
	wantDir := []Direction{Write, Read, Mixed, Write, Read}
	for i, pm := range m.Phases {
		if pm.Weight != wantWeight[i] || pm.Rep != wantRep[i] || pm.Direction() != wantDir[i] {
			t.Fatalf("phase %d = weight %s rep %d dir %s\n%s",
				pm.ID, units.FormatBytes(pm.Weight), pm.Rep, pm.Direction(), m)
		}
		// Table VIII: initOffset slope idP·8·32MB for every phase.
		if pm.OffsetA != 8*32*units.MiB || !pm.OffsetOK {
			t.Fatalf("phase %d offset fn A=%d exact=%v", pm.ID, pm.OffsetA, pm.OffsetOK)
		}
		if pm.NP != 16 {
			t.Fatalf("phase %d np=%d", pm.ID, pm.NP)
		}
	}
	// §IV-A metadata: individual pointers, non-collective, blocking,
	// sequential mode, shared file.
	if m.PointerSet != "individual" || m.Collective || m.AccessMode != "sequential" || m.AccessType != "shared" {
		t.Fatalf("metadata: %+v", m)
	}
	// Phase 3 skew: reads two bins ahead of writes.
	p3 := m.Phases[2]
	if len(p3.Ops) != 2 || p3.Ops[1].Skew != 2*32*units.MiB {
		t.Fatalf("phase 3 ops %+v", p3.Ops)
	}
}

func TestBTIOModelMatchesTableXI(t *testing.T) {
	// Miniature class (10 dumps) at 4 processes to keep the test fast;
	// the structure is class-independent (the paper: "we had obtained
	// the same I/O model in the four configurations to different
	// classes. Difference between the classes is the weights").
	const np = 4
	params := btio.Default(btio.ClassW)
	res := runner.Run(cluster.ConfigA(), np, "btio", func(sys *mpiio.System) func(*mpi.Rank) {
		return btio.Program(sys, params)
	}, runner.Options{Trace: true})
	m := mustValidate(t, Build(res.Set))

	dumps := btio.ClassW.Dumps()
	rs := btio.ClassW.RS(np)
	if len(m.Phases) != dumps+1 {
		t.Fatalf("phases = %d, want %d\n%s", len(m.Phases), dumps+1, m)
	}
	for i := 0; i < dumps; i++ {
		pm := m.Phases[i]
		if pm.Direction() != Write || pm.Rep != 1 || !pm.Collective {
			t.Fatalf("phase %d: dir=%s rep=%d coll=%v", pm.ID, pm.Direction(), pm.Rep, pm.Collective)
		}
		if pm.FamilyRep != i+1 {
			t.Fatalf("phase %d family rep %d", pm.ID, pm.FamilyRep)
		}
		// Table XI: rs·idP + rs·np·(ph−1), exactly.
		if pm.OffsetA != rs || pm.OffsetB != rs*np || !pm.OffsetOK {
			t.Fatalf("phase %d offsets A=%d B=%d want A=%d B=%d", pm.ID, pm.OffsetA, pm.OffsetB, rs, rs*np)
		}
	}
	last := m.Phases[dumps]
	if last.Direction() != Read || last.Rep != dumps {
		t.Fatalf("read phase %+v", last)
	}
	// §IV-B metadata: explicit offsets, collective, strided, shared,
	// etype 40.
	if m.PointerSet != "explicit" || !m.Collective || m.AccessMode != "strided" || m.AccessType != "shared" {
		t.Fatalf("metadata %+v", m)
	}
	if m.Files[0].ViewEtype != 40 {
		t.Fatalf("etype %d", m.Files[0].ViewEtype)
	}
	// Dump spacing: 5 steps × 24 exchanges + write = 121 ticks, Fig. 2.
	if d := m.Phases[1].Tick - m.Phases[0].Tick; d != 121 {
		t.Fatalf("dump tick spacing %d, want 121", d)
	}
}

// TestModelIndependence is the paper's central §I claim: the same model
// must come out of traces taken on different I/O subsystems.
func TestModelIndependence(t *testing.T) {
	rs := int64(4 * units.MiB)
	a := traceMadbench(t, cluster.ConfigA(), 8, rs)
	b := traceMadbench(t, cluster.ConfigB(), 8, rs)
	if !a.SameShape(b) {
		t.Fatalf("models differ across configurations:\nA:\n%s\nB:\n%s", a, b)
	}
	if a.SourceConfig == b.SourceConfig {
		t.Fatal("traces should come from different configs")
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	m := traceMadbench(t, cluster.ConfigA(), 4, units.MiB)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.SameShape(m) {
		t.Fatal("round trip changed the model")
	}
}

// TestLoadRejectsInvalidModels hand-edits a saved MADBench2 model into
// each shape Validate rejects; Load must return an error naming the
// defect instead of handing the CLIs a model that panics or misleads.
func TestLoadRejectsInvalidModels(t *testing.T) {
	base := traceMadbench(t, cluster.ConfigA(), 4, units.MiB)
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	if err := base.Save(basePath); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, want string
		edit       func(m *Model)
	}{
		{"np zero", "np 0", func(m *Model) { m.NP = 0 }},
		{"np negative", "np -4", func(m *Model) { m.NP = -4 }},
		{"phase np zero", "np 0", func(m *Model) { m.Phases[0].NP = 0 }},
		{"no ops", "no ops", func(m *Model) { m.Phases[0].Ops = []OpModel{} }},
		{"size zero", "size 0", func(m *Model) { m.Phases[1].Ops[0].Size = 0 }},
		{"size negative", "size -1", func(m *Model) { m.Phases[0].Ops[0].Size = -1 }},
		{"rep negative", "rep -3", func(m *Model) { m.Phases[0].Rep = -3 }},
		{"rep zero", "rep 0", func(m *Model) { m.Phases[2].Rep = 0 }},
		{"unknown file", "file 99", func(m *Model) { m.Phases[0].File = 99 }},
		{"no files", "not in files", func(m *Model) { m.Files = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Load(basePath)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(m)
			if err := m.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.want)
			}
			path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_")+".json")
			if err := m.Save(path); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(path); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load = %v, want error containing %q", err, tc.want)
			}
		})
	}
	// A null phase entry decodes to a nil pointer; it is rejected too.
	raw, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	nullPhase := strings.Replace(string(raw), `"phases": [`, `"phases": [null,`, 1)
	path := filepath.Join(dir, "null_phase.json")
	if err := os.WriteFile(path, []byte(nullPhase), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "null") {
		t.Fatalf("Load with null phase = %v", err)
	}
}

func TestReplaySpecDerivation(t *testing.T) {
	m := traceMadbench(t, cluster.ConfigA(), 8, 2*units.MiB)
	p1 := m.Phases[0]
	spec := p1.Replay(m.AccessType)
	if spec.NP != 8 || spec.Segments != 1 {
		t.Fatalf("spec %+v", spec)
	}
	if spec.BlockPerProc != p1.Weight/8 || spec.Transfer != 2*units.MiB {
		t.Fatalf("spec %+v", spec)
	}
	if spec.FilePerProc || spec.Collective {
		t.Fatalf("madbench replay flags %+v", spec)
	}
	if spec.Direction != Write {
		t.Fatalf("direction %s", spec.Direction)
	}
}

func TestAccessPointsCoverVolume(t *testing.T) {
	m := traceMadbench(t, cluster.ConfigA(), 4, units.MiB)
	pts := m.AccessPoints()
	var vol int64
	for _, pt := range pts {
		vol += pt.Size
	}
	w, r := m.TotalBytes()
	if vol != w+r {
		t.Fatalf("access points cover %d bytes, want %d", vol, w+r)
	}
}

func TestTotalBytesMatchesApp(t *testing.T) {
	params := madbench.Default()
	params.RS = units.MiB
	m := traceMadbench(t, cluster.ConfigA(), 4, units.MiB)
	w, r := m.TotalBytes()
	wantW, wantR := madbench.TotalBytes(params, 4)
	if w != wantW || r != wantR {
		t.Fatalf("volume w=%d r=%d, want %d/%d", w, r, wantW, wantR)
	}
}
