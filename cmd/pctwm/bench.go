package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
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

// benchCmd is `pctwm bench`: the strategy × benchmark hit-rate matrix
// with Wilson confidence intervals — the quick overview of how the
// algorithms compare on the paper's suite.
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
// bundles under DIR (see `pctwm replay`). -json switches to the
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
// a crash or kill -9, `pctwm bench -resume DIR` (same flags otherwise)
// reloads the newest good generation of every cell and continues,
// finishing with totals bit-identical to an uninterrupted run at any
// worker count. If the directory becomes unwritable mid-campaign the run
// keeps going, logs once, and the summary line is marked
// "durability: degraded".
//
// SIGINT/SIGTERM interrupt the run gracefully: in-flight trials are
// aborted through the engine's cooperative cancellation, the partial
// results measured so far are flushed (the -json snapshot is wrapped as
// {"partial":true,"snapshots":[...]}), and the command exits 1.
func benchCmd(args []string, stdout, stderr io.Writer) int {
	c := newCmd("bench", stdout, stderr)
	t := c.trialFlags("", 500, -1, 1, "rounds per strategy per benchmark")
	jsonOut := c.Bool("json", false, "emit the engine performance snapshot as JSON instead of the hit-rate matrix")
	benchSel := c.String("bench", "", "comma-separated benchmark names (default: all)")
	compare := c.String("compare", "", "baseline snapshot JSON to diff the fresh measurement against (benchstat-style)")
	maxRegress := c.Float64("max-regress", 15, "with -compare: fail when ns_per_event regresses by more than this percent")
	maxAllocs := c.Float64("max-allocs-regress", 25, "with -compare: fail when allocs_per_run regresses by more than this percent (plus absolute slack)")
	exploreFlag := c.Bool("explore", false, "with -json/-compare: add exhaustive-exploration throughput cells over the litmus suite (serial and workers-8)")
	telFlag := c.Bool("telemetry", false, "collect engine counters per cell (stderr summary; embedded in -json snapshots)")
	group := c.campaignFlags()
	model := c.model("memory model backend: rc11, sc, tso")
	if code, ok := c.parse(args); !ok {
		return code
	}

	benches := benchprog.All()
	if *benchSel != "" {
		benches = benches[:0]
		for _, name := range strings.Split(*benchSel, ",") {
			b, err := benchprog.ByName(strings.TrimSpace(name))
			if err != nil {
				return c.fail(2, "%v", err)
			}
			benches = append(benches, b)
		}
	}
	cp, err := group.start(c)
	if err != nil {
		return c.fail(2, "%v", err)
	}
	defer cp.stop()

	m := &measurement{
		benches: benches, t: t, collect: *telFlag,
		optsFor: func(b *benchprog.Benchmark) engine.Options {
			opts := b.Options()
			opts.Model = model.name
			// -coverage also applies to the -json/-compare measurement
			// paths, so the bench gate can bound the fingerprinting
			// overhead and the allocs gate can verify the hot path stays
			// allocation-free with the accumulator armed.
			opts.Coverage = cp.Coverage
			return opts
		},
	}
	if *exploreFlag {
		m.exploreOpts = &engine.Options{Model: model.name}
	}
	if *compare != "" {
		return m.compare(cp.Context, c, *compare, *maxRegress, *maxAllocs)
	}
	if *jsonOut {
		return m.emit(cp.Context, c)
	}

	cols := []struct {
		name    string
		factory func(d int) harness.StrategyFactory
	}{
		{"c11tester", func(int) harness.StrategyFactory { return harness.C11Tester() }},
		{"pos", func(int) harness.StrategyFactory { return harness.POSFactory() }},
		{"pct", harness.PCTFactory},
		{"pctwm", func(d int) harness.StrategyFactory { return harness.PCTWMFactory(d, t.history) }},
	}
	start := time.Now()
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	header := "Benchmark\td"
	for _, col := range cols {
		header += "\t" + col.name
	}
	fmt.Fprintln(tw, header)
	interrupted := false
	bundles := 0
	for _, b := range benches {
		if cp.Context.Err() != nil {
			interrupted = true
			break
		}
		prog := b.Program(0)
		opts := m.optsFor(b)
		est := harness.EstimateParams(prog, 20, t.seed^0x5eed, opts)
		d := t.depthFor(b.Depth)
		row := fmt.Sprintf("%s\t%d", b.Name, d)
		if cp.Metrics != nil {
			cp.Metrics.SetPhase(b.Name)
		}
		for i, col := range cols {
			factory := col.factory(d)
			camp := cp.Campaign
			camp.Telemetry = *telFlag
			camp.CheckpointCell = b.Name + "/" + col.name
			res := harness.RunCampaign(prog, b.Detect, func() engine.Strategy { return factory(est) },
				t.runs, t.seed+int64(10*i), opts, camp)
			bundles += reportFailures(c, b.Name, col.name, res)
			if *telFlag && res.Telemetry != nil {
				reportTelemetry(c, b.Name, col.name, res.Telemetry)
			}
			if cp.Coverage && res.Coverage != nil {
				reportCoverage(c, b.Name, col.name, res.Coverage)
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
	cp.stop()
	if bundles > 0 {
		c.logf("%d repro bundle(s) written under %s (replay with pctwm replay)", bundles, cp.ReproDir)
	}
	durability := ""
	if cp.degraded() {
		durability = ", durability: degraded"
	}
	if interrupted {
		fmt.Fprintf(stdout, "(interrupted: partial results, %d rounds per completed cell, %v total%s)\n", t.runs, time.Since(start).Round(time.Millisecond), durability)
		return 1
	}
	fmt.Fprintf(stdout, "(%d rounds per cell, %v total%s)\n", t.runs, time.Since(start).Round(time.Millisecond), durability)
	return 0
}

// reportFailures prints the campaign's captured failures (repro bundles +
// triage verdicts) to stderr and returns how many bundles were written.
func reportFailures(c *cmd, bench, strategy string, res harness.TrialResult) int {
	n := 0
	for _, f := range res.Failures {
		if f.BundlePath != "" {
			n++
		}
		c.logf("%s/%s seed %d: %s (%s, triage %s) -> %s", bench, strategy, f.Seed, f.Kind, f.Msg, f.Triage, f.BundlePath)
	}
	if res.Nondeterministic > 0 {
		c.logf("WARNING: %s/%s: %d failure(s) did not reproduce on re-run — determinism bug?", bench, strategy, res.Nondeterministic)
	}
	if res.Panics > 0 {
		c.logf("WARNING: %s/%s: %d trial(s) panicked outside the engine (quarantined)", bench, strategy, res.Panics)
	}
	return n
}

// reportCoverage prints one cell's behavior-coverage digest to stderr.
// The set is merged deterministically, so the numbers are identical for
// every -workers setting and across kill/-resume boundaries.
func reportCoverage(c *cmd, bench, strategy string, set *coverage.Set) {
	st := set.Stats()
	c.logf("coverage %s/%s: %d behavior(s) in %d trial(s), est_unseen %.2f%%, chao1 %.1f, last novel at trial %d",
		bench, strategy, st.Behaviors, st.Observations, 100*st.UnseenMass, st.Chao1, st.LastNovel)
}

// reportTelemetry prints one cell's merged engine-counter digest to
// stderr (identical totals for every -workers setting).
func reportTelemetry(c *cmd, bench, strategy string, tel *telemetry.EngineCounters) {
	s := tel.Summary()
	grants := s.Handoffs + s.SameThreadGrants
	handoffPct := 0.0
	if grants > 0 {
		handoffPct = 100 * float64(s.Handoffs) / float64(grants)
	}
	c.logf("telemetry %s/%s: trials %d, events %d, handoffs %.1f%%, rf-cand mean %.1f max %d, cp-depth mean %.1f max %d, race checks %d",
		bench, strategy, s.Trials, s.Events, handoffPct,
		s.RFCandidates.Mean, s.RFCandidates.Max,
		s.ChangePointDepth.Mean, s.ChangePointDepth.Max, s.RaceChecks)
}

// measurement is the engine performance snapshot behind -json and
// -compare: the selected benchmarks under the random baseline and PCTWM,
// plus, with -explore, the explorer throughput cells.
type measurement struct {
	benches     []*benchprog.Benchmark
	t           *trialFlags
	optsFor     func(*benchprog.Benchmark) engine.Options
	collect     bool            // -telemetry: embed counter digests
	exploreOpts *engine.Options // nil without -explore
}

// snapshotSweeps is how many times the snapshot measurement sweeps the
// whole benchmark × strategy matrix. Each cell keeps its fastest sweep:
// the sweeps sample every cell at well-separated points in time, so an
// ambient noise episode (frequency scaling, a co-tenant VM burning the
// core) must span the entire measurement to bias a cell. The work is
// deterministic per cell, so the minimum estimates the unperturbed cost.
const snapshotSweeps = 3

// measure measures the steady-state trial loop per benchmark for the
// random baseline and PCTWM. See snapshotSweeps for the noise model. The
// context is checked between cells: on cancellation the cells fully
// measured so far are returned with partial=true.
func (m *measurement) measure(ctx context.Context) (snaps []harness.EngineSnapshot, partial bool) {
	type cell struct {
		prog *engine.Program
		opts engine.Options
		name string
		mk   func() engine.Strategy
	}
	var cells []cell
	for _, b := range m.benches {
		prog := b.Program(0)
		opts := m.optsFor(b)
		est := harness.EstimateParams(prog, 20, m.t.seed^0x5eed, opts)
		d := m.t.depthFor(b.Depth)
		cells = append(cells,
			cell{prog, opts, b.Name, func() engine.Strategy { return core.NewRandom() }},
			cell{prog, opts, b.Name, func() engine.Strategy { return core.NewPCTWM(d, m.t.history, est.KCom) }},
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
			if m.collect {
				// Fresh counters per sweep so the kept (fastest) snapshot
				// carries the digest of exactly that sweep's loop.
				opts.Telemetry = &telemetry.EngineCounters{}
			}
			snap := harness.MeasureEngine(c.name, c.prog, c.mk(), m.t.runs, m.t.seed, opts)
			if sweep == 0 || snap.NsPerRun < snaps[i].NsPerRun {
				snaps[i] = snap
			}
			if sweep == 0 {
				measured = i + 1
			}
		}
	}
	if m.exploreOpts != nil {
		targets := litmusExploreTargets()
		for _, w := range exploreWorkerCounts {
			if ctx.Err() != nil {
				return snaps, true
			}
			snaps = append(snaps, harness.MeasureExplore(exploreCellName, targets, exploreLimit, w, *m.exploreOpts))
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

// emit writes the JSON snapshot to stdout — the plain array
// (BENCH_engine.json format) on a complete measurement, the
// partial-marked wrapper when interrupted — and returns the exit status
// (1 on interruption).
func (m *measurement) emit(ctx context.Context, c *cmd) int {
	snaps, partial := m.measure(ctx)
	enc := json.NewEncoder(c.stdout)
	enc.SetIndent("", "  ")
	var payload any = snaps
	if partial {
		payload = partialSnapshot{Partial: true, Snapshots: snaps}
	}
	if err := enc.Encode(payload); err != nil {
		return c.fail(1, "%v", err)
	}
	if partial {
		return c.fail(1, "interrupted: snapshot covers %d cell(s), marked partial", len(snaps))
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

// compare measures a fresh snapshot of the selected benchmarks, diffs it
// against the committed baseline and prints a benchstat-style table. The
// returned exit code is 1 when any compared cell's ns_per_event regressed
// by more than maxRegress percent or its allocs_per_run by more than
// maxAllocs percent (beyond the absolute slack — see
// harness.SnapshotDelta.AllocsRegressed).
func (m *measurement) compare(ctx context.Context, c *cmd, baselinePath string, maxRegress, maxAllocs float64) int {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return c.fail(2, "%v", err)
	}
	baseline, err := decodeSnapshots(data)
	if err != nil {
		return c.fail(2, "%s: %v", baselinePath, err)
	}

	// Restrict the baseline to the benchmarks actually being measured so
	// a partial run (the CI gate measures three) is not failed for cells
	// it never sampled.
	selected := make(map[string]bool, len(m.benches))
	for _, b := range m.benches {
		selected[b.Name] = true
	}
	if m.exploreOpts != nil {
		selected[exploreCellName] = true
	}
	kept := baseline[:0]
	for _, s := range baseline {
		if selected[s.Benchmark] {
			kept = append(kept, s)
		}
	}

	fresh, partial := m.measure(ctx)
	if partial {
		return c.fail(2, "interrupted mid-measurement; comparison not judged")
	}
	deltas := harness.CompareSnapshots(kept, fresh)
	missingFromOld, missingFromNew := harness.SnapshotGaps(kept, fresh)
	if len(missingFromOld) > 0 {
		c.logf("%d cell(s) measured but absent from %s (not gated): %s",
			len(missingFromOld), baselinePath, strings.Join(missingFromOld, ", "))
	}
	if len(missingFromNew) > 0 {
		c.logf("%d baseline cell(s) not measured this run: %s", len(missingFromNew), strings.Join(missingFromNew, ", "))
	}
	if len(deltas) == 0 {
		return c.fail(2, "no comparable cells between %s and the fresh measurement", baselinePath)
	}

	failed := 0
	tw := tabwriter.NewWriter(c.stdout, 0, 4, 2, ' ', 0)
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
		fmt.Fprintf(c.stdout, "FAIL: %d regression(s) over %d cells (gates: ns_per_event %.0f%%, allocs_per_run %.0f%%) vs %s\n",
			failed, len(deltas), maxRegress, maxAllocs, baselinePath)
		return 1
	}
	fmt.Fprintf(c.stdout, "ok: %d cells within %.0f%% ns/event and %.0f%% allocs of %s\n", len(deltas), maxRegress, maxAllocs, baselinePath)
	return 0
}
