package harness

import (
	"runtime"
	"time"

	"pctwm/internal/apps"
	"pctwm/internal/engine"
	"pctwm/internal/telemetry"
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

// EngineSnapshot is a machine-readable steady-state performance sample of
// the trial loop for one benchmark/strategy pair (emitted by
// `pctwm bench -json` and committed as BENCH_engine.json).
type EngineSnapshot struct {
	Benchmark  string  `json:"benchmark"`
	Strategy   string  `json:"strategy"`
	Runs       int     `json:"runs"`
	NsPerRun   float64 `json:"ns_per_run"`
	NsPerEvent float64 `json:"ns_per_event"`
	RunsPerSec float64 `json:"runs_per_sec"`
	// AllocsPerRun and BytesPerRun come from runtime.MemStats deltas over
	// the measured loop (all goroutines; run single-threaded for clean
	// numbers).
	AllocsPerRun float64 `json:"allocs_per_run"`
	BytesPerRun  float64 `json:"bytes_per_run"`
	// Telemetry digests the engine counters accumulated over the measured
	// loop when the caller armed engine.Options.Telemetry; omitted (and
	// costing nothing) otherwise. Old snapshots without the field decode
	// fine — CompareSnapshots only reads NsPerEvent.
	Telemetry *telemetry.EngineSummary `json:"telemetry,omitempty"`
}

// SnapshotDelta is the benchstat-style comparison of one
// benchmark/strategy cell across two engine snapshots (committed baseline
// vs fresh measurement).
type SnapshotDelta struct {
	Benchmark string
	Strategy  string
	// OldNsPerEvent / NewNsPerEvent are the per-event costs being compared.
	OldNsPerEvent float64
	NewNsPerEvent float64
	// DeltaPercent is (new-old)/old in percent: positive means the new
	// snapshot is slower (a regression), negative faster.
	DeltaPercent float64
	// OldAllocsPerRun / NewAllocsPerRun compare steady-state allocation
	// counts the same way (zero when the old snapshot predates the field).
	OldAllocsPerRun float64
	NewAllocsPerRun float64
	// AllocsDeltaPercent is (new-old)/old allocations in percent; 0 when
	// the old side is 0 (nothing to compare against).
	AllocsDeltaPercent float64
}

// Regressed reports whether the cell's per-event cost grew by more than
// maxPercent.
func (d SnapshotDelta) Regressed(maxPercent float64) bool {
	return d.DeltaPercent > maxPercent
}

// allocsAbsSlack is the absolute allocs-per-run growth below which
// AllocsRegressed never fires: steady-state loops sit at a handful of
// allocations per run, where GC bookkeeping jitter of a fraction of an
// allocation would otherwise trip any percentage gate.
const allocsAbsSlack = 0.5

// AllocsRegressed reports whether the cell's allocations per run grew by
// more than maxPercent AND by more than half an allocation in absolute
// terms. Old snapshots without allocation data (old side 0) never
// regress.
func (d SnapshotDelta) AllocsRegressed(maxPercent float64) bool {
	if d.OldAllocsPerRun <= 0 {
		return false
	}
	return d.AllocsDeltaPercent > maxPercent &&
		d.NewAllocsPerRun-d.OldAllocsPerRun > allocsAbsSlack
}

// CompareSnapshots matches old and new snapshots by (benchmark, strategy)
// and returns one delta per pair present in both, in the old snapshot's
// order. Cells present on only one side are ignored — the gate compares
// what both snapshots measured.
func CompareSnapshots(old, new []EngineSnapshot) []SnapshotDelta {
	idx := make(map[[2]string]EngineSnapshot, len(new))
	for _, s := range new {
		idx[[2]string{s.Benchmark, s.Strategy}] = s
	}
	var deltas []SnapshotDelta
	for _, o := range old {
		n, ok := idx[[2]string{o.Benchmark, o.Strategy}]
		if !ok || o.NsPerEvent <= 0 {
			continue
		}
		d := SnapshotDelta{
			Benchmark:       o.Benchmark,
			Strategy:        o.Strategy,
			OldNsPerEvent:   o.NsPerEvent,
			NewNsPerEvent:   n.NsPerEvent,
			DeltaPercent:    100 * (n.NsPerEvent - o.NsPerEvent) / o.NsPerEvent,
			OldAllocsPerRun: o.AllocsPerRun,
			NewAllocsPerRun: n.AllocsPerRun,
		}
		if o.AllocsPerRun > 0 {
			d.AllocsDeltaPercent = 100 * (n.AllocsPerRun - o.AllocsPerRun) / o.AllocsPerRun
		}
		deltas = append(deltas, d)
	}
	return deltas
}

// SnapshotGaps names the cells present on only one side of a snapshot
// comparison: missingFromOld lists "benchmark/strategy" cells the
// candidate measured but the baseline lacks (e.g. an old
// BENCH_engine.json recorded before explore cells existed), and
// missingFromNew the reverse. CompareSnapshots skips one-sided cells
// silently; callers use the gaps to report *which* cells were not
// compared instead of a generic mismatch. Names appear in input order,
// deduplicated.
func SnapshotGaps(old, new []EngineSnapshot) (missingFromOld, missingFromNew []string) {
	key := func(s EngineSnapshot) [2]string { return [2]string{s.Benchmark, s.Strategy} }
	name := func(s EngineSnapshot) string { return s.Benchmark + "/" + s.Strategy }
	oldIdx := make(map[[2]string]bool, len(old))
	for _, s := range old {
		oldIdx[key(s)] = true
	}
	newIdx := make(map[[2]string]bool, len(new))
	for _, s := range new {
		newIdx[key(s)] = true
	}
	seen := make(map[[2]string]bool)
	for _, s := range new {
		if !oldIdx[key(s)] && !seen[key(s)] {
			seen[key(s)] = true
			missingFromOld = append(missingFromOld, name(s))
		}
	}
	seen = make(map[[2]string]bool)
	for _, s := range old {
		if !newIdx[key(s)] && !seen[key(s)] {
			seen[key(s)] = true
			missingFromNew = append(missingFromNew, name(s))
		}
	}
	return missingFromOld, missingFromNew
}

// measureReps is the number of timed repetitions MeasureEngine performs.
// Each repetition replays the identical seed sequence, so the repetitions
// are the same computation measured under different ambient noise; the
// fastest one is the least-perturbed sample and is what gets reported
// (best-of-N, the usual benchmarking estimator for deterministic work).
const measureReps = 3

// MeasureEngine runs a steady-state serial trial loop on one pooled Runner
// and samples wall-clock and allocation cost per run. A warmup fraction
// (10% of runs, at least one) fills the Runner's pools before measurement;
// the timed loop is then repeated measureReps times and the fastest
// repetition reported.
func MeasureEngine(name string, prog *engine.Program, strat engine.Strategy, runs int, seed int64, opts engine.Options) EngineSnapshot {
	if runs < 1 {
		runs = 1
	}
	r := engine.NewRunner(prog, opts)
	defer r.Close()
	warmup := runs / 10
	if warmup < 1 {
		warmup = 1
	}
	for i := 0; i < warmup; i++ {
		r.Run(strat, seed+int64(i))
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var best time.Duration
	var events int
	for rep := 0; rep < measureReps; rep++ {
		start := time.Now()
		n := 0
		for i := 0; i < runs; i++ {
			n += r.Run(strat, seed+int64(i)).Events
		}
		if elapsed := time.Since(start); rep == 0 || elapsed < best {
			best, events = elapsed, n
		}
	}
	runtime.ReadMemStats(&after)

	totalRuns := float64(measureReps * runs)
	snap := EngineSnapshot{
		Benchmark:    name,
		Strategy:     strat.Name(),
		Runs:         runs,
		NsPerRun:     float64(best.Nanoseconds()) / float64(runs),
		AllocsPerRun: float64(after.Mallocs-before.Mallocs) / totalRuns,
		BytesPerRun:  float64(after.TotalAlloc-before.TotalAlloc) / totalRuns,
	}
	if events > 0 {
		snap.NsPerEvent = float64(best.Nanoseconds()) / float64(events)
	}
	if best > 0 {
		snap.RunsPerSec = float64(runs) / best.Seconds()
	}
	if opts.Telemetry != nil {
		s := opts.Telemetry.Summary()
		snap.Telemetry = &s
	}
	return snap
}
