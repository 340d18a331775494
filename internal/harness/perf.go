package harness

import (
	"runtime"
	"time"

	"pctwm/internal/apps"
	"pctwm/internal/engine"
)

// PerfResult is one Table-4 measurement: an application tested by one
// strategy in one core configuration.
type PerfResult struct {
	App      string
	Strategy string
	// Cores is the GOMAXPROCS setting ("single" = 1). The engine
	// serializes threads like C11Tester, so — as the paper observes —
	// the configuration should not matter.
	Cores int
	Runs  int
	// MeanSeconds is the mean wall-clock time per run.
	MeanSeconds float64
	// Throughput is Ops/MeanSeconds (reported for Silo).
	Throughput float64
	// RSDPercent is the relative standard deviation over the runs.
	RSDPercent float64
	// NsPerEvent is the mean engine cost per memory event — the
	// per-operation instrumentation overhead (strategy bookkeeping,
	// view maintenance) independent of how many retries a schedule needs.
	NsPerEvent float64
	// RacesDetected counts runs in which the detector found a data race
	// (the paper: both tools detect races in all applications).
	RacesDetected int
	Aborted       int
}

// MeasureApp runs the application `runs` times under the factory's
// strategy and aggregates timing (Table 4 averages over 10 runs). All runs
// share one pooled Runner and one strategy value, so the measurement
// reflects steady-state per-run cost rather than setup cost.
func MeasureApp(a *apps.App, factory StrategyFactory, runs int, seed int64, cores int) PerfResult {
	prog := a.Program()
	opts := a.Options()
	est := EstimateParams(prog, 5, seed^0x9e1f, opts)

	prev := runtime.GOMAXPROCS(cores)
	defer runtime.GOMAXPROCS(prev)

	res := PerfResult{App: a.Name, Cores: cores, Runs: runs}
	r := engine.NewRunner(prog, opts)
	defer r.Close()
	strat := factory(est)
	res.Strategy = strat.Name()
	samples := make([]float64, 0, runs)
	var total time.Duration
	var totalEvents int
	for i := 0; i < runs; i++ {
		o := r.Run(strat, seed+int64(i))
		total += o.Duration
		totalEvents += o.Events
		samples = append(samples, o.Duration.Seconds())
		if len(o.Races) > 0 {
			res.RacesDetected++
		}
		if o.Aborted {
			res.Aborted++
		}
	}
	res.MeanSeconds = total.Seconds() / float64(runs)
	if totalEvents > 0 {
		res.NsPerEvent = float64(total.Nanoseconds()) / float64(totalEvents)
	}
	if res.MeanSeconds > 0 {
		res.Throughput = float64(a.Ops) / res.MeanSeconds
	}
	res.RSDPercent = RSD(samples)
	return res
}
