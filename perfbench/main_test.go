package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json at the repository
// root in step with the metrics the command prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadSpecs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloadSpecs))
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	e2e := endToEndMetrics([]passSample{{}}, []float64{1})
	if len(spec.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the command prints %d", len(spec.EndToEnd), len(e2e))
	}
	for i, m := range e2e {
		if got := spec.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s (%s), command %s (%s)", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
	if len(spec.PerLayer) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command prints %d", len(spec.PerLayer), len(perLayerNames))
	}
	var shares []string
	for _, n := range perLayerNames {
		if b, ok := strings.CutPrefix(n, "cpu_share."); ok {
			shares = append(shares, b)
		}
	}
	if !slices.Equal(shares, bucketNames) {
		t.Errorf("cpu_share metrics %v, profile buckets %v", shares, bucketNames)
	}
	for i, n := range perLayerNames {
		if got := spec.PerLayer[i]; got.Name != n || got.Unit != unitOf(n) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), command %s (%s)", i, got.Name, got.Unit, n, unitOf(n))
		}
	}
}
