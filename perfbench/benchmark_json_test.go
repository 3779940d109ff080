package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root declares exactly the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	declared := func(list []struct{ Name, Unit string }) []metricSpec {
		var out []metricSpec
		for _, m := range list {
			out = append(out, metricSpec{m.Name, m.Unit})
		}
		return out
	}
	if got := declared(b.EndToEnd); !reflect.DeepEqual(got, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", got, endToEndMetrics)
	}
	if got := declared(b.PerLayer); !reflect.DeepEqual(got, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", got, perLayerMetrics)
	}
}

func TestCheckMetrics(t *testing.T) {
	specs := []metricSpec{{"a", "s"}, {"b", "ms"}}
	ok := map[string]metric{"a": {1, "s"}, "b": {2, "ms"}}
	if err := checkMetrics(ok, specs); err != nil {
		t.Error(err)
	}
	for name, bad := range map[string]map[string]metric{
		"missing": {"a": {1, "s"}},
		"extra":   {"a": {1, "s"}, "b": {2, "ms"}, "c": {3, "s"}},
		"unit":    {"a": {1, "s"}, "b": {2, "s"}},
	} {
		if checkMetrics(bad, specs) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
