// Command pctwm-bench prints the full strategy × benchmark hit-rate
// matrix with Wilson confidence intervals — the quick overview of how the
// algorithms compare on the paper's suite.
//
// Usage:
//
//	pctwm-bench [-runs N] [-s SEED] [-workers N] [-d D] [-y H] [-bench a,b]
//	            [-repro-dir DIR [-max-repros N]]
//	            [-checkpoint-dir DIR [-checkpoint-every N]] [-resume DIR]
//	            [-metrics-addr ADDR] [-pprof-addr ADDR] [-progress] [-telemetry]
//	            [-coverage]
//	            [-json] [-compare FILE [-max-regress PCT] [-max-allocs-regress PCT]]
//	            [-explore]
//
// -workers spreads each cell's rounds over N worker goroutines (0 =
// GOMAXPROCS, 1 = serial; results are identical for every worker count).
// -telemetry collects per-cell engine counters (op mix, handoff ratio,
// rf candidate-bag sizes, change-point depths) and prints a summary per
// cell to stderr; in -json mode it embeds the counter digest in each
// snapshot. -metrics-addr serves live campaign metrics (Prometheus on
// /metrics, JSON on /metrics.json, expvar on /debug/vars); -pprof-addr
// serves net/http/pprof (workers run under pprof labels); -progress
// prints a periodic one-line status to stderr.
// -coverage fingerprints every complete trial's behavior
// (internal/coverage) and prints a per-cell saturation digest to stderr
// — distinct behaviors, the Good–Turing estimate of the unseen mass,
// the Chao1 richness bound, and the trial index of the last novelty;
// with -progress the live status line gains `behaviors=N est_unseen=p%`,
// and with -metrics-addr the endpoint exports
// pctwm_coverage_behaviors_total and pctwm_coverage_unseen_mass. With
// -coverage the repro sink also dedupes by behavior: the -max-repros
// budget is spent on distinct behavior fingerprints, not raw failures.
// -repro-dir arms the campaign repro sink: the first -max-repros failing
// trials per cell are flake-triaged and written as replayable JSON
// bundles under DIR (see pctwm-replay). -json switches to the
// machine-readable engine performance snapshot: instead of the hit-rate
// matrix, it emits one steady-state measurement (ns/run, runs/sec,
// allocs/run) per benchmark × strategy on stdout — the format committed
// as BENCH_engine.json. -compare measures the same snapshot and diffs it
// benchstat-style against a committed baseline, exiting 1 when any
// cell's ns_per_event regressed by more than -max-regress percent or its
// allocs_per_run by more than -max-allocs-regress percent — the CI bench
// gate. -explore adds exhaustive-exploration throughput cells (the full
// litmus suite enumerated serially and on 8 workers) to -json/-compare
// measurements.
//
// -checkpoint-dir arms the durable checkpoint layer: each benchmark ×
// strategy cell periodically (every -checkpoint-every trials) writes an
// atomic, checksummed snapshot of its cumulative state under DIR. After
// a crash or kill -9, `pctwm-bench -resume DIR` (same flags otherwise)
// reloads the newest good generation of every cell and continues,
// finishing with totals bit-identical to an uninterrupted run at any
// worker count. If the directory becomes unwritable mid-campaign the run
// keeps going, logs once, and the summary line is marked
// "durability: degraded".
//
// SIGINT/SIGTERM interrupt the run gracefully: in-flight trials are
// aborted through the engine's cooperative cancellation, the partial
// results measured so far are flushed (the -json snapshot is wrapped as
// {"partial":true,"snapshots":[...]}), and the process exits nonzero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"pctwm/internal/benchprog"
	"pctwm/internal/core"
	"pctwm/internal/coverage"
	"pctwm/internal/engine"
	"pctwm/internal/harness"
	"pctwm/internal/litmus"
	"pctwm/internal/telemetry"
)

func main() {
	var (
		runs        = flag.Int("runs", 500, "rounds per strategy per benchmark")
		seed        = flag.Int64("s", 1, "base random seed")
		workers     = flag.Int("workers", 1, "worker goroutines per cell (0 = GOMAXPROCS, 1 = serial)")
		depth       = flag.Int("d", -1, "bug depth override (-1 = each benchmark's design depth)")
		history     = flag.Int("y", 1, "history depth for PCTWM")
		jsonOut     = flag.Bool("json", false, "emit the engine performance snapshot as JSON instead of the hit-rate matrix")
		benchSel    = flag.String("bench", "", "comma-separated benchmark names (default: all)")
		compare     = flag.String("compare", "", "baseline snapshot JSON to diff the fresh measurement against (benchstat-style)")
		maxRegress  = flag.Float64("max-regress", 15, "with -compare: fail when ns_per_event regresses by more than this percent")
		maxAllocs   = flag.Float64("max-allocs-regress", 25, "with -compare: fail when allocs_per_run regresses by more than this percent (plus absolute slack)")
		exploreFlag = flag.Bool("explore", false, "with -json/-compare: add exhaustive-exploration throughput cells over the litmus suite (serial and workers-8)")
		reproDir    = flag.String("repro-dir", "", "write replayable repro bundles for failing trials under this directory")
		maxRepros   = flag.Int("max-repros", 3, "with -repro-dir: cap triaged bundles per benchmark × strategy cell")
		ckptDir     = flag.String("checkpoint-dir", "", "write periodic durable campaign checkpoints under this directory")
		ckptEvery   = flag.Int("checkpoint-every", harness.DefaultCheckpointEvery, "checkpoint cadence in trials per cell")
		resumeDir   = flag.String("resume", "", "resume a checkpointed campaign from this directory (implies -checkpoint-dir)")
		metricsAddr = flag.String("metrics-addr", "", "serve campaign metrics on this address (/metrics Prometheus, /metrics.json, /debug/vars)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address")
		progress    = flag.Bool("progress", false, "print a periodic one-line campaign status to stderr")
		telFlag     = flag.Bool("telemetry", false, "collect engine counters per cell (stderr summary; embedded in -json snapshots)")
		covFlag     = flag.Bool("coverage", false, "fingerprint each trial's behavior and report per-cell coverage/saturation (implies telemetry collection)")
		model       = flag.String("engine.model", engine.ModelRC11, "memory model backend: rc11, sc, tso")
	)
	flag.Parse()
	if !engine.ValidModel(*model) {
		fmt.Fprintf(os.Stderr, "pctwm-bench: unknown memory model %q (have %v)\n", *model, engine.Models())
		os.Exit(2)
	}
	if *model == "" {
		*model = engine.ModelRC11 // "" selects the default backend
	}

	// -resume is -checkpoint-dir plus loading whatever good generations
	// already exist; both at once must agree on the directory.
	var spec *harness.CheckpointSpec
	if *resumeDir != "" {
		if *ckptDir != "" && *ckptDir != *resumeDir {
			fmt.Fprintf(os.Stderr, "pctwm-bench: -resume %s conflicts with -checkpoint-dir %s\n", *resumeDir, *ckptDir)
			os.Exit(2)
		}
		*ckptDir = *resumeDir
	}
	if *ckptDir != "" {
		spec = &harness.CheckpointSpec{
			Dir:    *ckptDir,
			Every:  *ckptEvery,
			Resume: *resumeDir != "",
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "pctwm-bench: "+format+"\n", args...)
			},
		}
	}

	// Graceful interruption: the first SIGINT/SIGTERM cancels the context
	// (draining workers and flushing partial results); a second signal
	// kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One metrics hub for the process; the HTTP endpoint and the progress
	// reporter read it while the campaigns feed it.
	var metrics *telemetry.Metrics
	if *metricsAddr != "" || *progress {
		metrics = &telemetry.Metrics{}
	}
	if *metricsAddr != "" {
		bound, stopSrv, err := metrics.ListenAndServe(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pctwm-bench: metrics endpoint: %v\n", err)
			os.Exit(2)
		}
		defer stopSrv()
		fmt.Fprintf(os.Stderr, "pctwm-bench: serving metrics on http://%s/metrics\n", bound)
	}
	if *pprofAddr != "" {
		bound, stopSrv, err := telemetry.ListenAndServePprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pctwm-bench: pprof endpoint: %v\n", err)
			os.Exit(2)
		}
		defer stopSrv()
		fmt.Fprintf(os.Stderr, "pctwm-bench: serving pprof on http://%s/debug/pprof/\n", bound)
	}
	stopProgress := func() {}
	if *progress {
		stopProgress = telemetry.StartProgress(os.Stderr, metrics, 2*time.Second)
	}
	defer stopProgress()

	dFor := func(b *benchprog.Benchmark) int {
		if *depth >= 0 {
			return *depth
		}
		return b.Depth
	}
	optsFor := func(b *benchprog.Benchmark) engine.Options {
		opts := b.Options()
		opts.Model = *model
		// -coverage also applies to the -json/-compare measurement paths,
		// so the bench gate can bound the fingerprinting overhead and the
		// allocs gate can verify the hot path stays allocation-free with
		// the accumulator armed.
		opts.Coverage = *covFlag
		return opts
	}

	benches := benchprog.All()
	if *benchSel != "" {
		benches = benches[:0]
		for _, name := range strings.Split(*benchSel, ",") {
			b, err := benchprog.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "pctwm-bench: %v\n", err)
				os.Exit(2)
			}
			benches = append(benches, b)
		}
	}

	var exploreOpts *engine.Options
	if *exploreFlag {
		exploreOpts = &engine.Options{Model: *model}
	}
	if *compare != "" {
		code := runCompare(ctx, benches, dFor, optsFor, *runs, *seed, *history, *compare, *maxRegress, *maxAllocs, *telFlag, exploreOpts)
		stopProgress()
		os.Exit(code)
	}
	if *jsonOut {
		code := emitSnapshot(ctx, os.Stdout, benches, dFor, optsFor, *runs, *seed, *history, *telFlag, exploreOpts)
		stopProgress()
		os.Exit(code)
	}

	type column struct {
		name    string
		factory func(b *benchprog.Benchmark) harness.StrategyFactory
	}
	cols := []column{
		{"c11tester", func(*benchprog.Benchmark) harness.StrategyFactory { return harness.C11Tester() }},
		{"pos", func(*benchprog.Benchmark) harness.StrategyFactory { return harness.POSFactory() }},
		{"pct", func(b *benchprog.Benchmark) harness.StrategyFactory {
			d := dFor(b)
			if d < 1 {
				d = 1
			}
			return harness.PCTFactory(d)
		}},
		{"pctwm", func(b *benchprog.Benchmark) harness.StrategyFactory {
			return harness.PCTWMFactory(dFor(b), *history)
		}},
	}

	start := time.Now()
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	header := "Benchmark\td"
	for _, c := range cols {
		header += "\t" + c.name
	}
	fmt.Fprintln(tw, header)
	interrupted := false
	bundles := 0
	for _, b := range benches {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		prog := b.Program(0)
		opts := optsFor(b)
		est := harness.EstimateParams(prog, 20, *seed^0x5eed, opts)
		row := fmt.Sprintf("%s\t%d", b.Name, dFor(b))
		if metrics != nil {
			metrics.SetPhase(b.Name)
		}
		for i, c := range cols {
			factory := c.factory(b)
			newStrategy := func() engine.Strategy { return factory(est) }
			camp := harness.Campaign{
				Workers: *workers, Context: ctx,
				ReproDir: *reproDir, MaxRepros: *maxRepros,
				Metrics: metrics, Telemetry: *telFlag, Coverage: *covFlag,
				Checkpoint: spec, CheckpointCell: b.Name + "/" + c.name,
			}
			res := harness.RunCampaign(prog, b.Detect, newStrategy, *runs, *seed+int64(10*i), opts, camp)
			bundles += reportFailures(b.Name, c.name, res)
			if *telFlag && res.Telemetry != nil {
				reportTelemetry(b.Name, c.name, res.Telemetry)
			}
			if *covFlag && res.Coverage != nil {
				reportCoverage(b.Name, c.name, res.Coverage)
			}
			interrupted = interrupted || res.Interrupted
			lo, hi := res.CI95()
			row += fmt.Sprintf("\t%.1f [%.0f,%.0f]", res.Rate(), lo, hi)
		}
		fmt.Fprintln(tw, row)
		if interrupted {
			break
		}
	}
	tw.Flush()
	stopProgress()
	if bundles > 0 {
		fmt.Fprintf(os.Stderr, "pctwm-bench: %d repro bundle(s) written under %s (replay with pctwm-replay)\n", bundles, *reproDir)
	}
	durability := ""
	if spec != nil && spec.Degraded() {
		durability = ", durability: degraded"
	}
	if interrupted {
		fmt.Printf("(interrupted: partial results, %d rounds per completed cell, %v total%s)\n", *runs, time.Since(start).Round(time.Millisecond), durability)
		os.Exit(1)
	}
	fmt.Printf("(%d rounds per cell, %v total%s)\n", *runs, time.Since(start).Round(time.Millisecond), durability)
}

// reportFailures prints the campaign's captured failures (repro bundles +
// triage verdicts) to stderr and returns how many bundles were written.
func reportFailures(bench, strategy string, res harness.TrialResult) int {
	n := 0
	for _, f := range res.Failures {
		if f.BundlePath != "" {
			n++
		}
		fmt.Fprintf(os.Stderr, "pctwm-bench: %s/%s seed %d: %s (%s, triage %s) -> %s\n",
			bench, strategy, f.Seed, f.Kind, f.Msg, f.Triage, f.BundlePath)
	}
	if res.Nondeterministic > 0 {
		fmt.Fprintf(os.Stderr, "pctwm-bench: WARNING: %s/%s: %d failure(s) did not reproduce on re-run — determinism bug?\n",
			bench, strategy, res.Nondeterministic)
	}
	if res.Panics > 0 {
		fmt.Fprintf(os.Stderr, "pctwm-bench: WARNING: %s/%s: %d trial(s) panicked outside the engine (quarantined)\n",
			bench, strategy, res.Panics)
	}
	return n
}

// reportCoverage prints one cell's behavior-coverage digest to stderr.
// The set is merged deterministically, so the numbers are identical for
// every -workers setting and across kill/-resume boundaries.
func reportCoverage(bench, strategy string, set *coverage.Set) {
	st := set.Stats()
	fmt.Fprintf(os.Stderr,
		"pctwm-bench: coverage %s/%s: %d behavior(s) in %d trial(s), est_unseen %.2f%%, chao1 %.1f, last novel at trial %d\n",
		bench, strategy, st.Behaviors, st.Observations, 100*st.UnseenMass, st.Chao1, st.LastNovel)
}

// reportTelemetry prints one cell's merged engine-counter digest to
// stderr (identical totals for every -workers setting).
func reportTelemetry(bench, strategy string, c *telemetry.EngineCounters) {
	s := c.Summary()
	grants := s.Handoffs + s.SameThreadGrants
	handoffPct := 0.0
	if grants > 0 {
		handoffPct = 100 * float64(s.Handoffs) / float64(grants)
	}
	fmt.Fprintf(os.Stderr,
		"pctwm-bench: telemetry %s/%s: trials %d, events %d, handoffs %.1f%%, rf-cand mean %.1f max %d, cp-depth mean %.1f max %d, race checks %d\n",
		bench, strategy, s.Trials, s.Events, handoffPct,
		s.RFCandidates.Mean, s.RFCandidates.Max,
		s.ChangePointDepth.Mean, s.ChangePointDepth.Max, s.RaceChecks)
}

// snapshotSweeps is how many times the snapshot measurement sweeps the
// whole benchmark × strategy matrix. Each cell keeps its fastest sweep:
// the sweeps sample every cell at well-separated points in time, so an
// ambient noise episode (frequency scaling, a co-tenant VM burning the
// core) must span the entire measurement to bias a cell. The work is
// deterministic per cell, so the minimum estimates the unperturbed cost.
const snapshotSweeps = 3

// measureSnapshot measures the steady-state trial loop per benchmark for
// the random baseline and PCTWM. See snapshotSweeps for the noise model.
// The context is checked between cells: on cancellation the cells fully
// measured so far are returned with partial=true.
func measureSnapshot(ctx context.Context, benches []*benchprog.Benchmark, dFor func(*benchprog.Benchmark) int,
	optsFor func(*benchprog.Benchmark) engine.Options, runs int, seed int64, history int, collect bool,
	exploreOpts *engine.Options) (snaps []harness.EngineSnapshot, partial bool) {
	type cell struct {
		prog *engine.Program
		opts engine.Options
		name string
		mk   func() engine.Strategy
	}
	var cells []cell
	for _, b := range benches {
		b := b
		prog := b.Program(0)
		opts := optsFor(b)
		est := harness.EstimateParams(prog, 20, seed^0x5eed, opts)
		cells = append(cells,
			cell{prog, opts, b.Name, func() engine.Strategy { return core.NewRandom() }},
			cell{prog, opts, b.Name, func() engine.Strategy { return core.NewPCTWM(dFor(b), history, est.KCom) }},
		)
	}

	snaps = make([]harness.EngineSnapshot, len(cells))
	measured := 0
	for sweep := 0; sweep < snapshotSweeps; sweep++ {
		for i, c := range cells {
			if ctx.Err() != nil {
				// Keep only cells that completed at least one sweep.
				return snaps[:measured], true
			}
			opts := c.opts
			if collect {
				// Fresh counters per sweep so the kept (fastest) snapshot
				// carries the digest of exactly that sweep's loop.
				opts.Telemetry = &telemetry.EngineCounters{}
			}
			snap := harness.MeasureEngine(c.name, c.prog, c.mk(), runs, seed, opts)
			if sweep == 0 || snap.NsPerRun < snaps[i].NsPerRun {
				snaps[i] = snap
			}
			if sweep == 0 {
				measured = i + 1
			}
		}
	}
	if exploreOpts != nil {
		targets := litmusExploreTargets()
		for _, w := range exploreWorkerCounts {
			if ctx.Err() != nil {
				return snaps, true
			}
			snaps = append(snaps, harness.MeasureExplore(exploreCellName, targets, exploreLimit, w, *exploreOpts))
		}
	}
	return snaps, false
}

// Explore-throughput cell parameters: the cell exhausts the full litmus
// suite (the workload of the CI models job and the conformance tests),
// once serially and once on 8 workers, so the snapshot gates both the
// pooled per-leaf cost and the parallel sharding overhead.
const (
	exploreCellName = "explore-litmus"
	exploreLimit    = 2_000_000
)

var exploreWorkerCounts = []int{1, 8}

// litmusExploreTargets adapts the litmus suite to harness.ExploreTarget.
func litmusExploreTargets() []harness.ExploreTarget {
	var targets []harness.ExploreTarget
	for _, lt := range litmus.Suite() {
		lt := lt
		targets = append(targets, harness.ExploreTarget{
			Name: lt.Name,
			Prog: lt.Program,
			Key:  func(o *engine.Outcome) string { return lt.Outcome(o.FinalValues) },
		})
	}
	return targets
}

// partialSnapshot is the -json output format when the measurement was
// interrupted: the plain snapshot array (the committed BENCH_engine.json
// format) wrapped with an explicit partial marker so downstream tooling
// never mistakes a truncated measurement for a complete one.
type partialSnapshot struct {
	Partial   bool                     `json:"partial"`
	Snapshots []harness.EngineSnapshot `json:"snapshots"`
}

// emitSnapshot writes the JSON snapshot to w — the plain array
// (BENCH_engine.json format) on a complete measurement, the
// partial-marked wrapper when interrupted — and returns the exit status
// (nonzero on interruption).
func emitSnapshot(ctx context.Context, w *os.File, benches []*benchprog.Benchmark, dFor func(*benchprog.Benchmark) int,
	optsFor func(*benchprog.Benchmark) engine.Options, runs int, seed int64, history int, collect bool,
	exploreOpts *engine.Options) int {
	snaps, partial := measureSnapshot(ctx, benches, dFor, optsFor, runs, seed, history, collect, exploreOpts)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	var payload any = snaps
	if partial {
		payload = partialSnapshot{Partial: true, Snapshots: snaps}
	}
	if err := enc.Encode(payload); err != nil {
		fmt.Fprintf(os.Stderr, "pctwm-bench: %v\n", err)
		return 1
	}
	if partial {
		fmt.Fprintf(os.Stderr, "pctwm-bench: interrupted: snapshot covers %d cell(s), marked partial\n", len(snaps))
		return 1
	}
	return 0
}

// decodeSnapshots parses a snapshot file in either format: the plain
// array (complete measurement, the committed baseline format) or the
// {"partial":true,"snapshots":[...]} wrapper flushed by an interrupted
// run.
func decodeSnapshots(data []byte) ([]harness.EngineSnapshot, error) {
	var arr []harness.EngineSnapshot
	if err := json.Unmarshal(data, &arr); err == nil {
		return arr, nil
	}
	var wrapped partialSnapshot
	if err := json.Unmarshal(data, &wrapped); err == nil && wrapped.Snapshots != nil {
		return wrapped.Snapshots, nil
	}
	return nil, fmt.Errorf("neither a snapshot array nor a partial snapshot wrapper")
}

// runCompare measures a fresh snapshot of the selected benchmarks, diffs
// it against the committed baseline and prints a benchstat-style table.
// The returned exit code is 1 when any compared cell's ns_per_event
// regressed by more than maxRegress percent or its allocs_per_run by
// more than maxAllocs percent (beyond the absolute slack — see
// harness.SnapshotDelta.AllocsRegressed).
func runCompare(ctx context.Context, benches []*benchprog.Benchmark, dFor func(*benchprog.Benchmark) int,
	optsFor func(*benchprog.Benchmark) engine.Options, runs int, seed int64, history int,
	baselinePath string, maxRegress, maxAllocs float64, collect bool, exploreOpts *engine.Options) int {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pctwm-bench: %v\n", err)
		return 2
	}
	baseline, err := decodeSnapshots(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pctwm-bench: %s: %v\n", baselinePath, err)
		return 2
	}

	// Restrict the baseline to the benchmarks actually being measured so
	// a partial run (the CI gate measures three) is not failed for cells
	// it never sampled.
	selected := make(map[string]bool, len(benches))
	for _, b := range benches {
		selected[b.Name] = true
	}
	if exploreOpts != nil {
		selected[exploreCellName] = true
	}
	kept := baseline[:0]
	for _, s := range baseline {
		if selected[s.Benchmark] {
			kept = append(kept, s)
		}
	}

	fresh, partial := measureSnapshot(ctx, benches, dFor, optsFor, runs, seed, history, collect, exploreOpts)
	if partial {
		fmt.Fprintf(os.Stderr, "pctwm-bench: interrupted mid-measurement; comparison not judged\n")
		return 2
	}
	deltas := harness.CompareSnapshots(kept, fresh)
	missingFromOld, missingFromNew := harness.SnapshotGaps(kept, fresh)
	if len(missingFromOld) > 0 {
		fmt.Fprintf(os.Stderr, "pctwm-bench: %d cell(s) measured but absent from %s (not gated): %s\n",
			len(missingFromOld), baselinePath, strings.Join(missingFromOld, ", "))
	}
	if len(missingFromNew) > 0 {
		fmt.Fprintf(os.Stderr, "pctwm-bench: %d baseline cell(s) not measured this run: %s\n",
			len(missingFromNew), strings.Join(missingFromNew, ", "))
	}
	if len(deltas) == 0 {
		fmt.Fprintf(os.Stderr, "pctwm-bench: no comparable cells between %s and the fresh measurement\n", baselinePath)
		return 2
	}

	failed := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tstrategy\told ns/event\tnew ns/event\tdelta\told allocs\tnew allocs\tallocs delta")
	for _, d := range deltas {
		mark := ""
		if d.Regressed(maxRegress) {
			mark = "  REGRESSION"
			failed++
		}
		if d.AllocsRegressed(maxAllocs) {
			mark += "  ALLOCS-REGRESSION"
			failed++
		}
		fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.1f\t%+.1f%%\t%.1f\t%.1f\t%+.1f%%%s\n",
			d.Benchmark, d.Strategy, d.OldNsPerEvent, d.NewNsPerEvent, d.DeltaPercent,
			d.OldAllocsPerRun, d.NewAllocsPerRun, d.AllocsDeltaPercent, mark)
	}
	tw.Flush()
	if failed > 0 {
		fmt.Printf("FAIL: %d regression(s) over %d cells (gates: ns_per_event %.0f%%, allocs_per_run %.0f%%) vs %s\n",
			failed, len(deltas), maxRegress, maxAllocs, baselinePath)
		return 1
	}
	fmt.Printf("ok: %d cells within %.0f%% ns/event and %.0f%% allocs of %s\n", len(deltas), maxRegress, maxAllocs, baselinePath)
	return 0
}
