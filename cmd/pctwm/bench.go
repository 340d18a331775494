package main

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"pctwm/internal/benchprog"
	"pctwm/internal/coverage"
	"pctwm/internal/engine"
	"pctwm/internal/harness"
	"pctwm/internal/telemetry"
)

// benchCmd is `pctwm bench`: the strategy × benchmark hit-rate matrix
// with Wilson confidence intervals — the quick overview of how the
// algorithms compare on the paper's suite. Performance is measured by the
// repository benchmark instead (bench/, run with `bash bench/run.sh`).
//
// -workers spreads each cell's rounds over N worker goroutines (0 =
// GOMAXPROCS, 1 = serial; results are identical for every worker count).
// -telemetry collects per-cell engine counters (op mix, handoff ratio,
// rf candidate-bag sizes, change-point depths) and prints a summary per
// cell to stderr. -metrics-addr serves live campaign metrics (Prometheus on
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
// bundles under DIR (see `pctwm replay`).
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
// aborted through the engine's cooperative cancellation, the finished
// rows are printed, and the command exits 1; a second signal kills it.
func benchCmd(args []string, stdout, stderr io.Writer) int {
	c := newCmd("bench", stdout, stderr)
	t := c.trialFlags("", 500, -1, 1, "rounds per strategy per benchmark")
	benchSel := c.String("bench", "", "comma-separated benchmark names (default: all)")
	telFlag := c.Bool("telemetry", false, "collect engine counters per cell and print a summary per cell to stderr")
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
rows:
	for _, b := range benches {
		if cp.Context.Err() != nil {
			interrupted = true
			break
		}
		prog := b.Program(0)
		opts := b.Options()
		opts.Model = model.name
		est := harness.Profile(prog, opts)
		d := t.depthFor(b.Depth)
		row := fmt.Sprintf("%s\t%d", b.Name, d)
		if cp.Metrics != nil {
			cp.Metrics.SetPhase(b.Name)
		}
		for i, col := range cols {
			factory := col.factory(d)
			camp := cp.Campaign
			camp.Telemetry = *telFlag
			// A cell's label names the flags its strategy depends on, so
			// a resume under another -d or -y starts the cell over.
			camp.CheckpointCell = b.Name + "/" + col.name
			switch col.name {
			case "pct":
				camp.CheckpointCell += fmt.Sprintf("-d%d", d)
			case "pctwm":
				camp.CheckpointCell += fmt.Sprintf("-d%d-h%d", d, t.history)
			}
			res := harness.RunCampaign(prog, b.Detect, func() engine.Strategy { return factory(est) },
				t.runs, t.seed+int64(10*i), opts, camp)
			bundles += reportFailures(c, b.Name, col.name, res)
			if interrupted = res.Interrupted; interrupted {
				break rows
			}
			if *telFlag && res.Telemetry != nil {
				reportTelemetry(c, b.Name, col.name, res.Telemetry)
			}
			if cp.Coverage && res.Coverage != nil {
				reportCoverage(c, b.Name, col.name, res.Coverage)
			}
			lo, hi := res.CI95()
			row += fmt.Sprintf("\t%.1f [%.0f,%.0f]", res.Rate(), lo, hi)
		}
		fmt.Fprintln(tw, row)
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
