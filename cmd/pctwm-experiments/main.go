// Command pctwm-experiments regenerates the paper's evaluation artifacts:
// Tables 1-4 and the data series behind Figures 5 and 6.
//
// Usage:
//
//	pctwm-experiments [-quick] [-runs N] [-fig6runs N] [-perfruns N] [-seed S] [-workers N]
//	                  [-repro-dir DIR [-max-repros N]]
//	                  [-checkpoint-dir DIR [-checkpoint-every N]] [-resume DIR]
//	                  [-metrics-addr ADDR] [-pprof-addr ADDR] [-progress] [-coverage] [-distcheck]
//	                  [-section all|table1|table2|table3|table4|figure5|figure6|coverage|coveragecsv|telemetry|distcheck|...]
//
// -coverage fingerprints every complete trial's behavior
// (internal/coverage) across all sections: with -progress the status
// line gains `behaviors=N est_unseen=p%`, the metrics endpoint exports
// pctwm_coverage_behaviors_total / pctwm_coverage_unseen_mass, and the
// repro sink spends its -max-repros budget on distinct behaviors. The
// coverage/coveragecsv sections (behavior census vs. campaign
// saturation on litmus programs) fingerprint regardless of the flag.
//
// -distcheck (or -section distcheck) runs the statistical
// strategy-conformance harness instead of the paper artifacts: the
// shipped strategies are checked against exact ground truth from the
// exhaustive explorer and the colliding-priority regression fixture
// must be detected; any failure exits nonzero (the CI gate).
//
// The default configuration uses the paper's experiment sizes (1000
// rounds per table configuration, 500 per Figure 6 point, 10 timed runs
// per Table 4 cell); -quick shrinks everything for a fast smoke run.
// -repro-dir arms the campaign repro sink for every trial batch: failing
// trials are flake-triaged and written as replayable bundles (see
// pctwm-replay). -metrics-addr serves live campaign metrics (Prometheus
// text on /metrics, JSON on /metrics.json, expvar on /debug/vars);
// -pprof-addr serves net/http/pprof (campaign workers run under pprof
// labels, so profiles slice by worker/strategy/program); -progress
// prints a periodic one-line status to stderr. -checkpoint-dir arms
// durable campaign checkpoints: every trial batch periodically snapshots
// its cumulative state under DIR (one subdirectory per section cell),
// and `pctwm-experiments -resume DIR` with otherwise identical flags
// continues a killed run with bit-identical artifacts at any worker
// count; an unwritable directory degrades gracefully (the run finishes,
// a "durability: degraded" notice is printed). SIGINT/SIGTERM stop the
// run gracefully: the rows finished so far are flushed, the progress
// reporter emits its final line, a partial notice is printed, and the
// process exits nonzero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pctwm/internal/engine"
	"pctwm/internal/harness"
	"pctwm/internal/report"
	"pctwm/internal/telemetry"
)

func main() {
	var (
		quick         = flag.Bool("quick", false, "use the small smoke-run configuration")
		runs          = flag.Int("runs", 0, "rounds per configuration for tables 2-3 and figure 5 (0 = default)")
		fig6runs      = flag.Int("fig6runs", 0, "rounds per figure 6 point (0 = default)")
		perfruns      = flag.Int("perfruns", 0, "timed runs per table 4 cell (0 = default)")
		seed          = flag.Int64("seed", 0, "base random seed (0 = default)")
		workers       = flag.Int("workers", 1, "worker goroutines per trial batch (0 = GOMAXPROCS, 1 = serial); results are identical for every worker count")
		section       = flag.String("section", "all", "which artifact to regenerate: all, table1..table4, figure5, figure6, ablation, baselines, coverage, figure5csv, figure6csv, telemetry, telemetrycsv")
		reproDir      = flag.String("repro-dir", "", "write replayable repro bundles for failing trials under this directory")
		maxRepros     = flag.Int("max-repros", 3, "with -repro-dir: cap triaged bundles per trial batch")
		ckptDir       = flag.String("checkpoint-dir", "", "write periodic durable campaign checkpoints under this directory")
		ckptEvery     = flag.Int("checkpoint-every", harness.DefaultCheckpointEvery, "checkpoint cadence in trials per batch")
		resumeDir     = flag.String("resume", "", "resume a checkpointed run from this directory (implies -checkpoint-dir)")
		metricsAddr   = flag.String("metrics-addr", "", "serve campaign metrics on this address (/metrics Prometheus, /metrics.json, /debug/vars)")
		pprofAddr     = flag.String("pprof-addr", "", "serve net/http/pprof on this address")
		progress      = flag.Bool("progress", false, "print a periodic one-line campaign status to stderr")
		covFlag       = flag.Bool("coverage", false, "fingerprint each trial's behavior in every section's campaigns (progress line gains behaviors/est_unseen; repro bundles dedupe by behavior)")
		distcheckFlag = flag.Bool("distcheck", false, "run the strategy-conformance harness (shorthand for -section distcheck); exits nonzero if any distributional check fails or a colliding fixture goes undetected")
		model         = flag.String("engine.model", engine.ModelRC11, "memory model backend: rc11, sc, tso (the paper's tables are defined for rc11)")
	)
	flag.Parse()
	if !engine.ValidModel(*model) {
		fmt.Fprintf(os.Stderr, "pctwm-experiments: unknown memory model %q (have %v)\n", *model, engine.Models())
		os.Exit(2)
	}
	if *model == "" {
		*model = engine.ModelRC11 // "" selects the default backend
	}
	if *model != engine.ModelRC11 {
		fmt.Fprintf(os.Stderr, "pctwm-experiments: note: running under %s; the paper's tables are defined for rc11, so rates for bugs that need weak behaviour will differ\n", *model)
	}

	// Graceful interruption: the first SIGINT/SIGTERM cancels the context
	// (flushing the rows finished so far); a second signal kills the
	// process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := report.Default()
	if *quick {
		cfg = report.Quick()
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *fig6runs > 0 {
		cfg.Fig6Runs = *fig6runs
	}
	if *perfruns > 0 {
		cfg.PerfRuns = *perfruns
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Workers = *workers
	cfg.Context = ctx
	cfg.ReproDir = *reproDir
	cfg.MaxRepros = *maxRepros
	cfg.Model = *model
	cfg.Coverage = *covFlag

	// -resume is -checkpoint-dir plus loading whatever good generations
	// already exist; both at once must agree on the directory.
	if *resumeDir != "" {
		if *ckptDir != "" && *ckptDir != *resumeDir {
			fmt.Fprintf(os.Stderr, "pctwm-experiments: -resume %s conflicts with -checkpoint-dir %s\n", *resumeDir, *ckptDir)
			os.Exit(2)
		}
		*ckptDir = *resumeDir
	}
	if *ckptDir != "" {
		cfg.Checkpoint = &harness.CheckpointSpec{
			Dir:    *ckptDir,
			Every:  *ckptEvery,
			Resume: *resumeDir != "",
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "pctwm-experiments: "+format+"\n", args...)
			},
		}
	}

	// One metrics hub for the whole process: every report section's trial
	// batches feed it, and the HTTP endpoint / progress reporter read it.
	var metrics *telemetry.Metrics
	if *metricsAddr != "" || *progress {
		metrics = &telemetry.Metrics{}
		cfg.Metrics = metrics
	}
	if *metricsAddr != "" {
		bound, stopSrv, err := metrics.ListenAndServe(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pctwm-experiments: metrics endpoint: %v\n", err)
			os.Exit(2)
		}
		defer stopSrv()
		fmt.Fprintf(os.Stderr, "pctwm-experiments: serving metrics on http://%s/metrics\n", bound)
	}
	if *pprofAddr != "" {
		bound, stopSrv, err := telemetry.ListenAndServePprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pctwm-experiments: pprof endpoint: %v\n", err)
			os.Exit(2)
		}
		defer stopSrv()
		fmt.Fprintf(os.Stderr, "pctwm-experiments: serving pprof on http://%s/debug/pprof/\n", bound)
	}
	stopProgress := func() {}
	if *progress {
		stopProgress = telemetry.StartProgress(os.Stderr, metrics, 2*time.Second)
	}
	defer stopProgress()

	sections := map[string]func(io.Writer, report.Config) error{
		"all":          report.All,
		"table1":       report.Table1,
		"table2":       report.Table2,
		"table3":       report.Table3,
		"table4":       report.Table4,
		"figure5":      report.Figure5,
		"figure6":      report.Figure6,
		"ablation":     report.Ablations,
		"baselines":    report.Baselines,
		"coverage":     report.Coverage,
		"coveragecsv":  report.CoverageCSV,
		"figure5csv":   report.Figure5CSV,
		"figure6csv":   report.Figure6CSV,
		"telemetry":    report.Telemetry,
		"telemetrycsv": report.TelemetryCSV,
		"distcheck":    report.DistCheck,
	}
	if *distcheckFlag {
		*section = "distcheck"
	}
	f, ok := sections[*section]
	if !ok {
		fmt.Fprintf(os.Stderr, "pctwm-experiments: unknown section %q\n", *section)
		os.Exit(2)
	}
	err := f(os.Stdout, cfg)
	// Flush the final progress line before any exit path (os.Exit skips
	// deferred calls); stop is idempotent, so the deferred call is a no-op.
	stopProgress()
	if cfg.Checkpoint != nil && cfg.Checkpoint.Degraded() {
		fmt.Fprintf(os.Stderr, "pctwm-experiments: durability: degraded (checkpoint directory became unwritable; artifacts above are complete but not resumable)\n")
	}
	if err != nil {
		if errors.Is(err, report.ErrInterrupted) {
			fmt.Fprintf(os.Stderr, "pctwm-experiments: interrupted: output above is partial\n")
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pctwm-experiments: %v\n", err)
		os.Exit(1)
	}
}
