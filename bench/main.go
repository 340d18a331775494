// Command bench is the repository benchmark: five closed-loop workloads
// over the pctwm engine, with end-to-end metrics from an untraced run and
// a per-layer breakdown from a traced one. See README.md.
//
// Build and run it from the repository root with
//
//	bash bench/run.sh --workload bughunt --seed 1 [--seconds 20] [--trace 0|1]
//	bash bench/run.sh compare A.jsonl B.jsonl
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check is
// named on standard error and makes the exit status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run (--trace 0).
var endToEnd = []metricDef{
	{"trials_per_s", "trials/s"},
	{"hits_per_s", "hits/s"},
	{"ns_per_event", "ns"},
	{"trial_us_p50", "us"},
	{"trial_us_p99", "us"},
	{"rep_s", "s"},
	{"setup_s", "s"},
	{"allocs_per_trial", "allocs"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the metrics of the traced run (--trace 1), named after
// the package of the layer they measure.
var perLayer = []metricDef{
	{"engine.ns_per_event", "ns"},
	{"engine.handoff_frac", "frac"},
	{"engine.rf_candidates_mean", "count"},
	{"engine.events_per_trial", "count"},
	{"engine.backend_ns_per_event.rc11", "ns"},
	{"engine.backend_ns_per_event.tso", "ns"},
	{"engine.record_ns_per_event", "ns"},
	{"core.ns_per_event.random", "ns"},
	{"core.ns_per_event.pct", "ns"},
	{"core.ns_per_event.pctwm", "ns"},
	{"core.next_thread_ns", "ns"},
	{"core.pick_read_ns", "ns"},
	{"core.on_event_ns", "ns"},
	{"core.pick_read_per_trial", "count"},
	{"core.change_points_per_trial", "count"},
	{"race.ns_per_event", "ns"},
	{"race.checks_per_trial", "count"},
	{"coverage.ns_per_event", "ns"},
	{"coverage.behaviors", "count"},
	{"telemetry.ns_per_event", "ns"},
	{"harness.ns_per_trial", "ns"},
	{"harness.estimate_s", "s"},
	{"axiom.build_ns_per_exec", "ns"},
	{"axiom.check_ns_per_exec", "ns"},
	{"axiom.ns_per_event", "ns"},
	{"enumerate.runs", "count"},
	{"enumerate.runs_per_behavior", "count"},
	{"enumerate.ns_per_run", "ns"},
	{"enumerate.allocs_per_run", "allocs"},
	{"enumerate.plain_allocs_per_trial", "allocs"},
	{"trace.timer_ns", "ns"},
	{"trace.overhead_frac", "frac"},
}

type config struct {
	seed     int64
	seconds  float64 // measuring time
	trace    bool
	traceDir string
	// scale multiplies every trial count; tests shrink it.
	scale   float64
	minReps int
	// setups is the number of set-ups of an untraced run, spread over its
	// measuring time; setup_s is their median. One set-up is a single
	// sample of a few tens of milliseconds, so a run takes two per second.
	setups int
}

// result is everything one run measured. Metrics keep every sample so
// that compare can pool runs.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Failures  []string           `json:"failed_checks"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`

	defs    []metricDef
	samples map[string][]float64
	// values are the reported values of metrics that are not the median
	// of their samples.
	values map[string]float64
}

func newResult(w *workload, cfg config) *result {
	r := &result{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, defs: endToEnd,
		samples: make(map[string][]float64), values: make(map[string]float64)}
	if cfg.trace {
		r.defs = perLayer
	}
	return r
}

func (r *result) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// finish summarizes the samples; a metric that was never measured is an
// error in the benchmark itself.
func (r *result) finish() error {
	r.Metrics = make(map[string]summary, len(r.defs))
	for _, d := range r.defs {
		xs := r.samples[d.name]
		if len(xs) == 0 {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		s := summarize(d.unit, xs)
		s.Value = s.Median
		if v, ok := r.values[d.name]; ok {
			s.Value = v
		}
		r.Metrics[d.name] = s
	}
	r.Correct = len(r.Failures) == 0
	return nil
}

// div is a/b, or 0 when b is 0.
func div[A, B int64 | float64 | uint64 | int](a A, b B) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: bughunt, apps, models, explore or checked")
	seed := fs.Int64("seed", 1, "seed the trial seeds are derived from")
	seconds := fs.Float64("seconds", 20, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end measurement")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "where the traced run writes layers-W.json and trace-W.json")
	out := fs.String("out", "", "append the full result, every sample included, as one JSON line to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir,
		scale: 1, minReps: 5, setups: max(5, int(2**seconds))}
	res, err := run(w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printReport(stdout, res)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintln(stderr, "bench: check failed:", f)
	}
	if err := printLast(stdout, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func run(w *workload, cfg config) (*result, error) {
	var res *result
	var err error
	if cfg.trace {
		res, err = runTraced(w, cfg)
	} else {
		res = runUntraced(w, cfg)
	}
	if err != nil {
		return nil, err
	}
	return res, res.finish()
}

// runUntraced measures the end-to-end metrics: reps of the fixed work
// until the measuring time is spent, with the set-ups spread over the
// same time. Every rep runs the same trials, so each trial is timed once
// per rep, and the times report each trial at its fastest. The host the
// benchmark was sized on shares its caches and memory with other tenants,
// whose load slows a run down in bursts of seconds; a trial's fastest
// time filters the bursts out (see README.md). A workload with
// repMedians reports the median of its reps instead. Median, quartiles
// and n of the reps are reported beside the value.
func runUntraced(w *workload, cfg config) *result {
	res := newResult(w, cfg)
	setup := func() []*cell {
		runtime.GC()
		t0 := nanotime()
		cells := prepare(w, cfg.seed, cfg.scale)
		res.add("setup_s", float64(nanotime()-t0)/1e9)
		return cells
	}
	cells := setup()
	defer closeCells(cells)
	setups := 1

	tm, fastest := &timings{}, &timings{}
	x := &runEnv{tm: tm}
	var first repStats
	var reps int
	var diverged []string // names the first rep that ran other trials than rep 0
	var total cellStats
	var mallocs uint64
	start := nanotime()
	elapsed := func() float64 { return float64(nanotime()-start) / 1e9 }
	for reps < cfg.minReps || elapsed() < cfg.seconds {
		if setups < cfg.setups && elapsed() >= float64(setups)*cfg.seconds/float64(cfg.setups) {
			closeCells(setup())
			setups++
		}
		rep := runRep(cells, x)
		if reps == 0 {
			first = rep
		}
		if diverged == nil {
			diverged = repsAgree("reps-deterministic", first, rep, reps)
		}
		if err := fastest.keepMin(tm); err != nil && diverged == nil {
			diverged = []string{fmt.Sprintf("reps-deterministic: rep %d: %v", reps, err)}
		}
		reps++
		t := rep.total()
		total.add(t)
		mallocs += rep.mallocs
		wall := float64(rep.wallNs) / 1e9
		res.add("trials_per_s", float64(t.trials)/wall)
		res.add("hits_per_s", float64(t.hits)/wall)
		res.add("ns_per_event", div(t.engineNs, t.events))
		res.add("trial_us_p50", percentileNs(tm.lat, 50)/1e3)
		res.add("trial_us_p99", percentileNs(tm.lat, 99)/1e3)
		res.add("rep_s", wall)
		res.add("allocs_per_trial", div(rep.mallocs, t.trials))
	}
	for ; setups < cfg.setups; setups++ {
		closeCells(setup())
	}
	res.Attempted, res.Failed = total.trials, total.failed

	res.values["allocs_per_trial"] = div(mallocs, total.trials)
	if !w.repMedians {
		t := first.total()
		repNs := sum(fastest.lat) + sum(fastest.rest)
		res.values["rep_s"] = float64(repNs) / 1e9
		res.values["trials_per_s"] = div(t.trials*1e9, repNs)
		res.values["hits_per_s"] = div(t.hits*1e9, repNs)
		res.values["ns_per_event"] = div(sum(fastest.eng), t.events)
		res.values["trial_us_p50"] = percentileNs(fastest.lat, 50) / 1e3
		res.values["trial_us_p99"] = percentileNs(fastest.lat, 99) / 1e3
	}

	res.Failures = append(res.Failures, diverged...)
	res.Failures = append(res.Failures, w.check(cells, first.cells)...)
	res.add("max_rss_mb", maxRSSMiB())
	return res
}

// repsAgree checks that rep n ran the same trials, events, hits and
// behaviours as rep 0 of the same seeds.
func repsAgree(check string, rep0, r repStats, n int) []string {
	t0, t := rep0.total(), r.total()
	if t.trials != t0.trials || t.events != t0.events || t.hits != t0.hits || t.behaviors != t0.behaviors {
		return []string{fmt.Sprintf("%s: rep %d ran %d trials, %d events, %d hits, %d behaviours; rep 0 ran %d, %d, %d, %d",
			check, n, t.trials, t.events, t.hits, t.behaviors, t0.trials, t0.events, t0.hits, t0.behaviors)}
	}
	return nil
}

// maxRSSMiB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func printReport(w io.Writer, r *result) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s, seed %d, %s: %d trials attempted, %d failed\n", r.Workload, r.Seed, mode, r.Attempted, r.Failed)
	fmt.Fprintf(w, "%-36s %14s %14s %14s %14s %4s  %s\n", "metric", "value", "median", "p25", "p75", "n", "unit")
	for _, d := range r.defs {
		s := r.Metrics[d.name]
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %14.6g %14.6g %4d  %s\n", d.name, s.Value, s.Median, s.P25, s.P75, s.N, s.Unit)
	}
	if r.Correct {
		fmt.Fprintln(w, "correctness checks: all passed")
	} else {
		fmt.Fprintf(w, "correctness checks: %d failed\n", len(r.Failures))
	}
}

// printLast prints the one-line result: each metric's value.
func printLast(w io.Writer, r *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.defs))
	for _, d := range r.defs {
		metrics[d.name] = value{r.Metrics[d.name].Value, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func appendResult(path string, r *result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
