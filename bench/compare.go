package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// bound is one end-to-end metric's regression bound from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// absSlack is the absolute worsening below which a metric never counts as
// worse, whatever its share: a fraction of an allocation or a few
// milliseconds of set-up is jitter.
var absSlack = map[string]float64{"allocs_per_trial": 0.5, "setup_s": 0.005}

func loadBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// loadValues reads result lines written by -out and collects, for each
// workload and metric, the value of every untraced run.
func loadValues(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, s := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], s.Value)
		}
	}
	return out, sc.Err()
}

// verdict compares one metric's run values of a parent (a) and a change
// (c) by their medians. A spread between the parent's runs (interquartile
// range over median) wider than the bound leaves the metric unresolved,
// unless every run of the change reads better than every run of the
// parent. A single run per side has no measured spread.
func verdict(b bound, a, c []float64) (string, float64) {
	ma, mc := median(a), median(c)
	worse := (mc - ma) / ma
	allBetter := slices.Max(c) < slices.Min(a)
	if b.Better == "higher" {
		worse = -worse
		allBetter = slices.Min(c) > slices.Max(a)
	}
	if summarize("", a).spread() > b.Bound {
		if allBetter {
			return "better", worse
		}
		return "unresolved", worse
	}
	if worse > b.Bound && math.Abs(mc-ma) > absSlack[b.Name] {
		return "WORSE", worse
	}
	return "ok", worse
}

// compareMain is `bench compare A B`: for every workload in both files,
// one row judging each end-to-end metric of B against A by the bounds in
// BENCHMARK.json. It exits 1 if any metric is worse beyond its bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := fs.String("benchmark", "BENCHMARK.json", "the file that fixes each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-benchmark BENCHMARK.json] PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	bounds, err := loadBounds(*spec)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	a, err := loadValues(fs.Arg(0))
	if err == nil {
		var c map[string]map[string][]float64
		c, err = loadValues(fs.Arg(1))
		if err == nil {
			return printComparison(stdout, bounds, a, c)
		}
	}
	fmt.Fprintln(stderr, "bench compare:", err)
	return 2
}

func printComparison(w io.Writer, bounds []bound, a, c map[string]map[string][]float64) int {
	status := 0
	for _, wl := range workloads {
		ma, mc := a[wl.name], c[wl.name]
		if ma == nil || mc == nil {
			continue
		}
		row, worst := []string{}, "ok"
		for _, b := range bounds {
			xa, xc := ma[b.Name], mc[b.Name]
			if len(xa) == 0 || len(xc) == 0 {
				continue
			}
			v, worse := verdict(b, xa, xc)
			row = append(row, fmt.Sprintf("%s %s %+.1f%%", b.Name, v, 100*worse))
			switch {
			case v == "WORSE":
				worst, status = "WORSE", 1
			case v == "unresolved" && worst == "ok":
				worst = "unresolved"
			}
		}
		fmt.Fprintf(w, "%-8s %-10s %s\n", wl.name, worst, strings.Join(row, "; "))
	}
	return status
}
