package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and
// rationale.json in step with what the command prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &b)
	var names []string
	for _, w := range b.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the command has %d", names, len(workloads))
	}
	listed := map[string]bool{}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		listed[m.Name] = true
		if u, ok := metricUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("BENCHMARK.json metric %s [%s]: the command declares unit %q", m.Name, m.Unit, u)
		}
	}
	for n := range metricUnits {
		if !listed[n] {
			t.Errorf("metric %s is not listed in BENCHMARK.json", n)
		}
	}

	var r struct {
		Predictions map[string][]struct {
			Layer      string
			Metrics    []string
			ShouldMove []string `json:"should_move"`
		}
	}
	readJSON(t, "rationale.json", &r)
	var rnames []string
	for name, ps := range r.Predictions {
		rnames = append(rnames, name)
		if len(ps) == 0 {
			t.Errorf("rationale.json has no predictions for %s", name)
		}
		for _, p := range ps {
			if len(p.Metrics) == 0 || len(p.ShouldMove) == 0 {
				t.Errorf("prediction for %s on %s names no metric or no end-to-end effect", p.Layer, name)
			}
			for _, m := range append(p.Metrics, p.ShouldMove...) {
				if !listed[m] {
					t.Errorf("rationale.json names metric %s, which BENCHMARK.json does not list", m)
				}
			}
		}
	}
	sort.Strings(rnames)
	sort.Strings(names)
	if !slices.Equal(rnames, names) {
		t.Errorf("rationale.json predicts for workloads %v, BENCHMARK.json lists %v", rnames, names)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
