package roms

import (
	"testing"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/runner"
	"iophases/internal/trace"
)

func runTraced(t *testing.T, np int, p Params) *trace.Set {
	t.Helper()
	res := runner.Run(cluster.ConfigA(), np, "roms-upwelling", func(sys *mpiio.System) func(*mpi.Rank) {
		return Program(sys, p)
	}, runner.Options{Trace: true})
	return res.Set
}

func TestGeometryHelpers(t *testing.T) {
	p := Upwelling()
	if HistoryRecords(p) != 10 {
		t.Fatalf("records %d", HistoryRecords(p))
	}
	if HistoryFiles(p) != 2 {
		t.Fatalf("files %d", HistoryFiles(p))
	}
	// zeta (2-D) + 4 × 3-D fields of doubles.
	want := int64(128*128*8) + 4*int64(128*128*16*8)
	if RecordBytes(p) != want {
		t.Fatalf("record bytes %d, want %d", RecordBytes(p), want)
	}
}

func TestRunOpensMultipleFiles(t *testing.T) {
	p := Upwelling()
	set := runTraced(t, 4, p)
	// 2 history files + 1 restart file.
	if got := len(set.Files); got != 3 {
		t.Fatalf("file metas %d, want 3", got)
	}
	names := map[string]bool{}
	for _, f := range set.Files {
		names[f.Name] = true
	}
	for _, want := range []string{"/ocean_his_0000.nc", "/ocean_his_0001.nc", "/ocean_rst.nc"} {
		if !names[want] {
			t.Fatalf("missing %s in %v", want, names)
		}
	}
}

func TestTracedVolumeMatchesGeometry(t *testing.T) {
	p := Upwelling()
	p.RestartEvery = 0 // history only for exact accounting
	const np = 4
	set := runTraced(t, np, p)
	w, _ := set.TotalBytes()
	data := RecordBytes(p) * int64(HistoryRecords(p))
	// Metadata: per history file, rank 0 writes a superblock and five
	// object headers.
	meta := int64(HistoryFiles(p)) * (2048 + 5*1024)
	if w != data+meta {
		t.Fatalf("traced %d, want %d data + %d meta", w, data, meta)
	}
}

// TestModelPerFile is the paper's future-work claim: the model applies to
// each file the application opens.
func TestModelPerFile(t *testing.T) {
	p := Upwelling()
	set := runTraced(t, 4, p)
	m := core.Build(set)
	if err := m.Validate(); err != nil {
		t.Fatalf("extracted model fails Validate: %v", err)
	}
	filesWithPhases := map[int]int{}
	for _, pm := range m.Phases {
		filesWithPhases[pm.File]++
	}
	if len(filesWithPhases) != 3 {
		t.Fatalf("phases span %d files, want 3: %v", len(filesWithPhases), filesWithPhases)
	}
	// Every phase has an exact offset function and positive weight.
	for _, pm := range m.Phases {
		if pm.Weight <= 0 {
			t.Fatalf("phase %d weight %d", pm.ID, pm.Weight)
		}
		if !pm.OffsetOK {
			t.Fatalf("phase %d (file %d) offset fit inexact: %s", pm.ID, pm.File, pm.OffsetExpr)
		}
	}
	// The model is collective and strided (HDF5 slab views).
	if !m.Collective || m.AccessMode != "strided" {
		t.Fatalf("metadata %+v", m)
	}
}

func TestModelIndependenceAcrossConfigs(t *testing.T) {
	p := Upwelling()
	p.Steps = 16 // keep it quick
	build := func(spec cluster.Spec) *core.Model {
		res := runner.Run(spec, 4, "roms", func(sys *mpiio.System) func(*mpi.Rank) {
			return Program(sys, p)
		}, runner.Options{Trace: true})
		return core.Build(res.Set)
	}
	a, b := build(cluster.ConfigA()), build(cluster.ConfigB())
	if !a.SameShape(b) {
		t.Fatal("ROMS model differs across configurations")
	}
}

func TestIndependentTransferMode(t *testing.T) {
	p := Upwelling()
	p.Collective = false
	p.Steps = 8
	set := runTraced(t, 4, p)
	for _, ev := range set.DataEvents(1) {
		if ev.Op.IsCollective() {
			t.Fatalf("collective op %s in independent mode", ev.Op)
		}
	}
}

func TestBadGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Program(nil, Params{})
}
