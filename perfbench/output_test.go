package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	wls := workloads()
	if len(spec.Workloads) != len(wls) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(wls))
	}
	for _, w := range spec.Workloads {
		if wls[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}

// TestOutputSchema runs the open-loop workloads briefly at a low rate,
// untraced and traced, and checks the printed object against
// BENCHMARK.json: exactly the four top-level keys, and exactly the
// declared metrics with their units.
func TestOutputSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	spec := loadSpec(t)
	for _, tc := range []struct {
		workload string
		traced   bool
		want     map[string]string
	}{
		{"churn", false, units(spec.EndToEnd)},
		{"churn", true, units(spec.PerLayer)},
		{"dist", true, units(spec.PerLayer)},
	} {
		wl := workloads()[tc.workload]
		wl.rate = 3 // light enough for the race detector
		res, err := run(wl, 7, time.Second, tc.traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", tc.traced, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(line, &top); err != nil {
			t.Fatal(err)
		}
		if keys := sortedKeys(top); len(keys) != 4 || keys[0] != "attempted" || keys[1] != "correct" || keys[2] != "failed" || keys[3] != "metrics" {
			t.Errorf("traced=%v: top-level keys %v", tc.traced, keys)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", tc.traced, res.Correct, res.Attempted, res.Failed)
		}
		for name, unit := range tc.want {
			m, ok := res.Metrics[name]
			if !ok {
				t.Errorf("traced=%v: metric %s missing", tc.traced, name)
				continue
			}
			if m.Unit != unit {
				t.Errorf("traced=%v: metric %s unit %q, BENCHMARK.json says %q", tc.traced, name, m.Unit, unit)
			}
		}
		for name := range res.Metrics {
			if _, ok := tc.want[name]; !ok {
				t.Errorf("traced=%v: metric %s is not declared in BENCHMARK.json", tc.traced, name)
			}
		}
	}
}

func units(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) map[string]string {
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
