package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkMetrics reads the metric names and units BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = make(map[string]string), make(map[string]string)
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func sameMetrics(t *testing.T, want map[string]string, got map[string]metric) {
	t.Helper()
	var diff []string
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			diff = append(diff, "missing "+name+" ("+unit+")")
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			diff = append(diff, "undeclared "+name)
		}
	}
	sort.Strings(diff)
	if len(diff) > 0 {
		t.Fatalf("metrics differ from BENCHMARK.json: %v", diff)
	}
}

// TestQuick runs every workload end to end at small size with every check
// on, untraced and traced, and holds the printed metrics to BENCHMARK.json.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end workloads")
	}
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			cfg, err := newConfig(wl, 7, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				var out outcome
				want := endToEnd
				if traced {
					out, err = runTraced(context.Background(), cfg, "")
					want = perLayer
				} else {
					out, err = runE2E(context.Background(), cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !out.correct || out.failed != 0 || out.attempted == 0 {
					t.Fatalf("traced=%v: correct=%v failed=%d/%d problems=%v", traced, out.correct, out.failed, out.attempted, out.problems)
				}
				sameMetrics(t, want, out.metrics)
			}
		})
	}
}
