package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"iophases/internal/core"
	"iophases/internal/trace"
)

// TestTimedSourceYieldsSameModel checks that the decode timer is
// transparent: extracting through it gives the model extracting without it
// gives, on a binary trace directory, a text one, and an in-memory source,
// and that it sees every event and every rank open.
func TestTimedSourceYieldsSameModel(t *testing.T) {
	synth, err := trace.Synth(trace.SynthSpec{NP: 4, EventsPerRank: 20_000, RequestSize: 1 << 19, RoundLen: 1000})
	if err != nil {
		t.Fatal(err)
	}
	binDir, textDir := t.TempDir(), t.TempDir()
	if err := trace.WriteDir(synth, binDir, trace.FormatBinary); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteDir(synth, textDir, trace.FormatText); err != nil {
		t.Fatal(err)
	}
	sources := map[string]func() trace.Source{
		"in memory":  func() trace.Source { return synth },
		"binary dir": func() trace.Source { return mustOpen(t, binDir) },
		"text dir":   func() trace.Source { return mustOpen(t, textDir) },
	}
	for name, open := range sources {
		plain := buildJSON(t, open())
		var st decodeStats
		timed := buildJSON(t, timedSource{Source: open(), stats: &st})
		if !bytes.Equal(plain, timed) {
			t.Errorf("%s: the model through the timer differs from the model without it", name)
		}
		np := int64(open().Meta().NP)
		events := int64(0)
		set, err := trace.ReadSet(open())
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < int(np); p++ {
			events += int64(len(set.RankTrace(p)))
		}
		opens := st.opens.Load()
		if opens < np {
			t.Errorf("%s: %d rank opens, want at least %d", name, opens, np)
		}
		// Pass 2 re-reads whole ranks, so the timer sees every event once
		// per open of its rank; with equal ranks that is events/np per open.
		if got, want := st.events.Load(), events/np*opens; got != want {
			t.Errorf("%s: timer saw %d events, want %d", name, got, want)
		}
		if st.readNS.Load() <= 0 {
			t.Errorf("%s: no read time recorded", name)
		}
	}
}

func mustOpen(t *testing.T, dir string) trace.Source {
	t.Helper()
	src, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func buildJSON(t *testing.T, src trace.Source) []byte {
	t.Helper()
	m, err := core.BuildStream(src)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
