package main

import (
	"errors"
	"io"
	"strings"

	"pctwm/internal/engine"
	"pctwm/internal/report"
)

// sections are the artifacts -section selects, in help order.
var sections = []struct {
	name string
	run  func(io.Writer, report.Config) error
}{
	{"all", report.All},
	{"table1", report.Table1},
	{"table2", report.Table2},
	{"table3", report.Table3},
	{"table4", report.Table4},
	{"figure5", report.Figure5},
	{"figure6", report.Figure6},
	{"ablation", report.Ablations},
	{"baselines", report.Baselines},
	{"coverage", report.Coverage},
	{"coveragecsv", report.CoverageCSV},
	{"figure5csv", report.Figure5CSV},
	{"figure6csv", report.Figure6CSV},
	{"telemetry", report.Telemetry},
	{"telemetrycsv", report.TelemetryCSV},
	{"distcheck", report.DistCheck},
}

// experimentsCmd is `pctwm experiments`: it regenerates the paper's
// evaluation artifacts, Tables 1-4 and the data series behind Figures 5
// and 6, one at a time with -section.
//
// The default configuration uses the paper's experiment sizes (1000
// rounds per table configuration, 500 per Figure 6 point, 10 timed runs
// per Table 4 cell); -quick shrinks everything for a fast smoke run, and
// -runs, -fig6runs and -perfruns override one size each (0 = the
// section default).
//
// -section distcheck runs the statistical strategy-conformance harness
// instead of the paper artifacts: the shipped strategies are checked
// against exact ground truth from the exhaustive explorer and the
// colliding-priority regression fixture must be detected; any failure
// exits 1 (the CI gate).
//
// -coverage fingerprints every complete trial's behavior
// (internal/coverage) across all sections: with -progress the status
// line gains `behaviors=N est_unseen=p%`, the metrics endpoint exports
// pctwm_coverage_behaviors_total / pctwm_coverage_unseen_mass, and the
// repro sink spends its -max-repros budget on distinct behaviors. The
// coverage/coveragecsv sections (behavior census vs. campaign
// saturation on litmus programs) fingerprint regardless of the flag.
//
// -repro-dir arms the campaign repro sink for every trial batch: failing
// trials are flake-triaged and written as replayable bundles (see
// `pctwm replay`). -metrics-addr serves live campaign metrics
// (Prometheus text on /metrics, JSON on /metrics.json, expvar on
// /debug/vars); -pprof-addr serves net/http/pprof (campaign workers run
// under pprof labels, so profiles slice by worker/strategy/program);
// -progress prints a periodic one-line status to stderr.
// -checkpoint-dir arms durable campaign checkpoints: every trial batch
// periodically snapshots its cumulative state under DIR (one
// subdirectory per campaign cell), and `pctwm experiments -resume DIR`
// with otherwise identical flags continues a killed run with
// bit-identical artifacts at any worker count; an unwritable directory
// degrades gracefully (the run finishes, a "durability: degraded" notice
// is printed). SIGINT/SIGTERM stop the run gracefully: the rows finished
// so far are flushed, the progress reporter emits its final line, a
// partial notice is printed, and the command exits 1.
func experimentsCmd(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(sections))
	for i, s := range sections {
		names[i] = s.name
	}
	c := newCmd("experiments", stdout, stderr)
	quick := c.Bool("quick", false, "use the small smoke-run configuration")
	runs := c.Int("runs", 0, "rounds per campaign for tables 2-3, figure 5, ablation, baselines, coverage and telemetry (0 = section default)")
	fig6runs := c.Int("fig6runs", 0, "rounds per figure 6 point (0 = section default)")
	perfruns := c.Int("perfruns", 0, "timed runs per table 4 cell (0 = section default)")
	seed := c.Int64("s", report.Default().Seed, "base random seed")
	section := c.String("section", "all", "which artifact to regenerate: "+strings.Join(names, ", "))
	group := c.campaignFlags()
	model := c.model("memory model backend: rc11, sc, tso (the paper's tables are defined for rc11)")
	if code, ok := c.parse(args); !ok {
		return code
	}
	var run func(io.Writer, report.Config) error
	for _, s := range sections {
		if s.name == *section {
			run = s.run
		}
	}
	if run == nil {
		return c.fail(2, "unknown section %q (have %s)", *section, strings.Join(names, ", "))
	}
	if model.name != engine.ModelRC11 {
		c.logf("note: running under %s; the paper's tables are defined for rc11, so rates for bugs that need weak behaviour will differ", model.name)
	}
	cp, err := group.start(c)
	if err != nil {
		return c.fail(2, "%v", err)
	}
	defer cp.stop()

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
	cfg.Seed = *seed
	cfg.Model = model.name
	cfg.Campaign = cp.Campaign
	err = run(stdout, cfg)
	cp.stop()
	if errors.Is(err, report.ErrInterrupted) {
		return c.fail(1, "interrupted: output above is partial")
	}
	if err != nil {
		return c.fail(1, "%v", err)
	}
	return 0
}
