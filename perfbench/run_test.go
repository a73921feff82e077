package main

import (
	"testing"
)

// TestRunSmallWorkloads runs every workload, shrunk, for one second in
// both modes: each must pass its own checks and print exactly the
// metrics BENCHMARK.json lists for that mode.
func TestRunSmallWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for a few seconds")
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &b)
	for _, w := range workloads {
		w.Shards, w.Slots, w.Keys = 8, 128, 512
		w.Stream, w.Warmup = 4096, 200
		for _, traced := range []bool{false, true} {
			res, err := run(w, 3, 1, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d notes=%v",
					w.Name, traced, res.Correct, res.Failed, res.Attempted, res.notes)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				}
			}
			if !traced && res.Metrics["ops_per_s"].Value <= 0 {
				t.Errorf("%s: ops_per_s %v", w.Name, res.Metrics["ops_per_s"])
			}
		}
	}
}
