package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := bound{Name: "ns_per_event", Better: "lower", Bound: 0.1}
	higher := bound{Name: "trials_per_s", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		b    bound
		a, c []float64
		want string
	}{
		{lower, []float64{100}, []float64{105}, "ok"},
		{lower, []float64{100}, []float64{115}, "WORSE"},
		{higher, []float64{100}, []float64{85}, "WORSE"},
		{higher, []float64{100}, []float64{130}, "ok"},
		// A parent spread wider than the bound leaves the verdict open...
		{lower, []float64{80, 100, 120, 140}, []float64{125}, "unresolved"},
		// ...unless every run of the change is better.
		{lower, []float64{80, 100, 120, 140}, []float64{60, 70}, "better"},
		// Below the absolute slack a share does not count.
		{bound{Name: "allocs_per_trial", Better: "lower", Bound: 0.05}, []float64{2}, []float64{2.4}, "ok"},
		{bound{Name: "allocs_per_trial", Better: "lower", Bound: 0.05}, []float64{2}, []float64{2.6}, "WORSE"},
	} {
		if got, _ := verdict(c.b, c.a, c.c); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.b.Name, c.a, c.c, got, c.want)
		}
	}
}

// TestCompareFiles runs compare on two result files: one row per
// workload, and a nonzero status when a metric got worse.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tps float64) string {
		r := result{Workload: "bughunt", Metrics: map[string]summary{
			"trials_per_s": {Value: tps}, "setup_s": {Value: 0.5},
		}}
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent, same, slower := write("a", 1000), write("b", 990), write("c", 700)
	var out, errOut bytes.Buffer
	if code := compareMain([]string{"-benchmark", "../BENCHMARK.json", parent, same}, &out, &errOut); code != 0 {
		t.Fatalf("status %d: %s%s", code, out.String(), errOut.String())
	}
	if !strings.HasPrefix(out.String(), "bughunt") || strings.Count(out.String(), "\n") != 1 {
		t.Errorf("want one bughunt row, got %q", out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-benchmark", "../BENCHMARK.json", parent, slower}, &out, &errOut); code != 1 || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("a 30%% slower change: status %d, %q", code, out.String())
	}
}

// TestBenchmarkJSON: BENCHMARK.json names exactly the workloads and
// metrics the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []bound `json:"end_to_end"`
		PerLayer  []bound `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		listed []bound
		defs   []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.listed), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.listed[i].Name != d.name || c.listed[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					i, c.listed[i].Name, c.listed[i].Unit, d.name, d.unit)
			}
		}
	}
}
