package trace

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestOpenDirMixedFormats(t *testing.T) {
	// Rank 0 text-only, rank 1 binary-only: per-rank auto-detection.
	dir := t.TempDir()
	s := NewSet("mixed", "c", 2)
	s.Record(Event{Rank: 0, File: 0, Op: OpWriteAt, Tick: 1, Size: 10})
	s.Record(Event{Rank: 1, File: 0, Op: OpReadAt, Tick: 1, Size: 20})
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := writeBinaryRank(rankPath(dir, 1, FormatBinary), 1, s.Events[1]); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(rankPath(dir, 1, FormatText)); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, s.Events) {
		t.Fatalf("events mismatch:\ngot  %+v\nwant %+v", got.Events, s.Events)
	}
}

func TestOpenDirMissingRankFile(t *testing.T) {
	dir := t.TempDir()
	s := NewSet("x", "c", 2)
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(rankPath(dir, 1, FormatText)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir); err == nil {
		t.Fatal("missing rank file accepted")
	}
}

// TestOpenDirValidatesMeta feeds hand-edited meta.json sidecars to both
// loaders: a non-positive rank count must be an error, never a panic
// (makeslice) or an empty model.
func TestOpenDirValidatesMeta(t *testing.T) {
	for _, tc := range []struct {
		name, meta string
		ok         bool
	}{
		{"np=-1", `{"app":"madbench2","config":"c","np":-1}`, false},
		{"np=0", `{"app":"madbench2","config":"c","np":0}`, false},
		{"np missing", `{"app":"madbench2","config":"c"}`, false},
		{"np=1", `{"app":"madbench2","config":"c","np":1}`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte(tc.meta), 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.ok {
				if err := os.WriteFile(rankPath(dir, 0, FormatText), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, openErr := OpenDir(dir)
			_, loadErr := Load(dir)
			if tc.ok && (openErr != nil || loadErr != nil) {
				t.Fatalf("valid meta rejected: OpenDir %v, Load %v", openErr, loadErr)
			}
			if !tc.ok && (openErr == nil || loadErr == nil) {
				t.Fatalf("invalid meta accepted: OpenDir %v, Load %v", openErr, loadErr)
			}
		})
	}
}

func TestSourceRestartable(t *testing.T) {
	// The Source contract: OpenRank restarts the stream every call — the
	// property the streaming rescan pass depends on.
	dir := t.TempDir()
	s := adversarialSet()
	if err := s.SaveBinary(dir); err != nil {
		t.Fatal(err)
	}
	src, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		r, err := src.OpenRank(0)
		if err != nil {
			t.Fatal(err)
		}
		evs, err := ReadAll(r)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(evs, s.Events[0]) {
			t.Fatalf("pass %d diverged", pass)
		}
	}
}

func TestSetSourceRoundTrip(t *testing.T) {
	s := adversarialSet()
	got, err := ReadSet(s.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, s.Events) {
		t.Fatal("Set -> Source -> Set diverged")
	}
}

func TestSynthDeterministicAndRestartable(t *testing.T) {
	spec := SynthSpec{NP: 2, EventsPerRank: 5000, RoundLen: 64}
	a, err := Synth(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synth(spec)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		ra, _ := a.OpenRank(p)
		rb, _ := b.OpenRank(p)
		ea, err := ReadAll(ra)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := ReadAll(rb)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ea, eb) {
			t.Fatalf("rank %d: identical specs diverged", p)
		}
		if len(ea) != 5000 {
			t.Fatalf("rank %d: %d events, want 5000", p, len(ea))
		}
		// Ticks must be strictly increasing (trace order).
		for i := 1; i < len(ea); i++ {
			if ea[i].Tick <= ea[i-1].Tick {
				t.Fatalf("rank %d: tick not increasing at %d: %d -> %d",
					p, i, ea[i-1].Tick, ea[i].Tick)
			}
		}
	}
	if _, err := a.OpenRank(2); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

func TestSynthValidation(t *testing.T) {
	if _, err := Synth(SynthSpec{NP: 0, EventsPerRank: 10}); err == nil {
		t.Fatal("NP=0 accepted")
	}
	if _, err := Synth(SynthSpec{NP: 1, EventsPerRank: 0}); err == nil {
		t.Fatal("EventsPerRank=0 accepted")
	}
}

func TestViewMatchesViewOf(t *testing.T) {
	s := NewSet("x", "c", 4)
	s.AddFile(FileMeta{ID: 0, Name: "/a", Views: []ViewInfo{
		{Rank: 0, Disp: 10, Etype: 40, Block: 100, Stride: 400},
		{Rank: 2, Disp: 20, Etype: 40},
		{Rank: 2, Disp: 99, Etype: 8}, // duplicate: first wins, like ViewOf
	}})
	s.AddFile(FileMeta{ID: 5, Name: "/b"})
	for _, id := range []int{0, 5, 7} {
		for p := 0; p < 4; p++ {
			want := ViewInfo{Rank: p, Etype: 1}
			if m := s.FileMetaByID(id); m != nil {
				want = m.ViewOf(p)
			}
			if got := s.View(id, p); got != want {
				t.Fatalf("View(%d,%d) = %+v, want %+v", id, p, got, want)
			}
		}
	}
}

func TestViewIndexInvalidatedByAddFile(t *testing.T) {
	s := NewSet("x", "c", 1)
	s.AddFile(FileMeta{ID: 0, Views: []ViewInfo{{Rank: 0, Disp: 1, Etype: 1}}})
	if got := s.View(0, 0).Disp; got != 1 {
		t.Fatalf("disp = %d", got)
	}
	// Replacing the file after a lookup must rebuild the index.
	s.AddFile(FileMeta{ID: 0, Views: []ViewInfo{{Rank: 0, Disp: 2, Etype: 1}}})
	if got := s.View(0, 0).Disp; got != 2 {
		t.Fatalf("stale index: disp = %d, want 2", got)
	}
}

// BenchmarkViewIndexed pins the satellite perf fix: the indexed lookup
// must stay O(1) in files and views.
func BenchmarkViewIndexed(b *testing.B) {
	s := manyFileSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := s.View(63, 63); v.Etype != 40 {
			b.Fatal("bad view")
		}
	}
}

// BenchmarkViewScan is the pre-index double linear scan, for comparison.
func BenchmarkViewScan(b *testing.B) {
	s := manyFileSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := s.FileMetaByID(63).ViewOf(63); v.Etype != 40 {
			b.Fatal("bad view")
		}
	}
}

func manyFileSet() *Set {
	s := NewSet("bench", "c", 64)
	for id := 0; id < 64; id++ {
		m := FileMeta{ID: id}
		for p := 0; p < 64; p++ {
			m.Views = append(m.Views, ViewInfo{Rank: p, Etype: 40})
		}
		s.AddFile(m)
	}
	return s
}

func BenchmarkBinaryEncode(b *testing.B) {
	events := synthRankEvents(b, 100_000)
	b.SetBytes(int64(len(events)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bw, err := NewBinaryWriter(discard{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range events {
			if err := bw.Write(ev); err != nil {
				b.Fatal(err)
			}
		}
		if err := bw.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryDecode(b *testing.B) {
	events := synthRankEvents(b, 100_000)
	dir := b.TempDir()
	path := rankPath(dir, 0, FormatBinary)
	if err := writeBinaryRank(path, 0, events); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(events)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		d, err := newBinReader(f, 0, path)
		if err != nil {
			b.Fatal(err)
		}
		got, err := ReadAll(d)
		d.Close()
		if err != nil || len(got) != len(events) {
			b.Fatalf("decode: %v (%d events)", err, len(got))
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func synthRankEvents(tb testing.TB, n int64) []Event {
	src, err := Synth(SynthSpec{NP: 1, EventsPerRank: n})
	if err != nil {
		tb.Fatal(err)
	}
	r, err := src.OpenRank(0)
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Close()
	events, err := ReadAll(r)
	if err != nil {
		tb.Fatal(err)
	}
	return events
}
