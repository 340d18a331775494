// Command pctwm is the testing tool: one binary whose subcommands run the
// paper's strategies over its benchmarks, regenerate its evaluation,
// check the litmus suite against each memory model, and replay and
// render failing executions.
//
// Usage:
//
//	pctwm <command> [flags] [args]
//
// `pctwm` alone lists the commands; `pctwm <command> -h` prints a
// command's flags. Every command takes -engine.model
// {rc11,sc,tso} (default rc11; "" selects rc11, except that replay reads
// "" as "each bundle's own recorded model"). The flag names -d (bug
// depth), -y (history depth) and -s (seed) follow the paper's artifact
// (Appendix A.5) and mean the same in every command.
//
// Exit status: 0 on success, 1 when the command's check fails (a
// conformance failure, a diverged replay, an interrupted campaign), 2 on
// a usage error.
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

	"pctwm/internal/apps"
	"pctwm/internal/benchprog"
	"pctwm/internal/engine"
	"pctwm/internal/harness"
	"pctwm/internal/litmus"
	"pctwm/internal/replay"
	"pctwm/internal/telemetry"
)

// commands maps each subcommand name to its entry point. A command parses
// its own flags from args, writes to stdout and stderr, and returns the
// process exit status.
var commands = []struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) int
}{
	{"bench", "strategy × benchmark hit-rate matrix with 95% confidence intervals", benchCmd},
	{"experiments", "regenerate the paper's tables and figures, or the distcheck gate", experimentsCmd},
	{"explore", "exhaustively enumerate litmus-test outcomes (bounded model checking)", exploreCmd},
	{"litmus", "run the litmus conformance suite under one strategy", litmusCmd},
	{"replay", "re-execute repro bundles and verify they reproduce", replayCmd},
	{"run", "test one benchmark or application under one strategy", runCmd},
	{"trace", "find a failing execution, replay it and render its graph", traceCmd},
}

func main() {
	os.Exit(pctwm(os.Args[1:], os.Stdout, os.Stderr))
}

// pctwm dispatches args[0] to its subcommand and returns the exit status.
func pctwm(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				return c.run(args[1:], stdout, stderr)
			}
		}
		switch args[0] {
		case "-h", "-help", "--help":
			usage(stdout)
			return 0
		}
		fmt.Fprintf(stderr, "pctwm: unknown command %q\n", args[0])
	}
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: pctwm <command> [flags] [args]\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-12s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "\nRun 'pctwm <command> -h' for the command's flags.")
}

// cmd is one subcommand invocation: its flag set, its output streams and
// the shared flags parse checks.
type cmd struct {
	*flag.FlagSet
	name           string
	stdout, stderr io.Writer
	trials         *trialFlags
}

func newCmd(name string, stdout, stderr io.Writer) *cmd {
	fs := flag.NewFlagSet("pctwm "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &cmd{FlagSet: fs, name: name, stdout: stdout, stderr: stderr}
}

// parse parses args. On -h it returns 0 and false, on a usage error 2
// and false.
func (c *cmd) parse(args []string) (int, bool) {
	if err := c.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	if c.trials != nil && c.trials.runs < 1 {
		return c.fail(2, "-runs must be at least 1, got %d", c.trials.runs), false
	}
	return 0, true
}

// logf writes one "pctwm <command>: " line to stderr.
func (c *cmd) logf(format string, args ...any) {
	fmt.Fprintf(c.stderr, "pctwm %s: %s\n", c.name, fmt.Sprintf(format, args...))
}

// fail logs the message and returns code, the command's exit status.
func (c *cmd) fail(code int, format string, args ...any) int {
	c.logf(format, args...)
	return code
}

// modelFlag is -engine.model. Set rejects unknown backends and maps "" to
// rc11, except when perBundle is set (replay), where "" means "replay
// each bundle under its own recorded model".
type modelFlag struct {
	name      string
	perBundle bool
}

func (m *modelFlag) String() string { return m.name }

func (m *modelFlag) Set(s string) error {
	if !engine.ValidModel(s) {
		return fmt.Errorf("unknown memory model %q (have %v)", s, engine.Models())
	}
	if s == "" && !m.perBundle {
		s = engine.ModelRC11
	}
	m.name = s
	return nil
}

// model registers -engine.model with its default, rc11.
func (c *cmd) model(usage string) *modelFlag {
	m := &modelFlag{name: engine.ModelRC11}
	c.Var(m, "engine.model", usage)
	return m
}

// strategies are the paper's three testing strategies by -strategy name,
// built at bug depth d and history depth h. core.NewPCT clamps d to 1.
var strategies = map[string]func(d, h int) harness.StrategyFactory{
	"c11tester": func(int, int) harness.StrategyFactory { return harness.C11Tester() },
	"pct":       func(d, _ int) harness.StrategyFactory { return harness.PCTFactory(d) },
	"pctwm":     harness.PCTWMFactory,
}

// strategyFlag is -strategy; Set accepts only the names in strategies.
type strategyFlag string

func (s *strategyFlag) String() string { return string(*s) }

func (s *strategyFlag) Set(name string) error {
	if strategies[name] == nil {
		return fmt.Errorf("unknown strategy %q (have c11tester, pct, pctwm)", name)
	}
	*s = strategyFlag(name)
	return nil
}

// trialFlags are the flags bench, run, trace and litmus share: -runs
// (at least 1), the artifact's -d, -y and -s, and, except in bench,
// -strategy.
type trialFlags struct {
	strategy       strategyFlag
	runs           int
	depth, history int
	seed           int64
}

// trialFlags registers the group; an empty strategy leaves -strategy out.
func (c *cmd) trialFlags(strategy string, runs, depth, history int, runsUsage string) *trialFlags {
	t := &trialFlags{strategy: strategyFlag(strategy)}
	if strategy != "" {
		c.Var(&t.strategy, "strategy", "testing strategy: c11tester, pct, pctwm")
	}
	c.IntVar(&t.runs, "runs", runs, runsUsage)
	c.IntVar(&t.depth, "d", depth, "bug depth (pct, pctwm; -1 = the benchmark's designed depth)")
	c.IntVar(&t.history, "y", history, "history depth (pctwm)")
	c.Int64Var(&t.seed, "s", 1, "base random seed")
	c.trials = t
	return t
}

// depthFor is -d, or the program's designed depth when -d is negative.
func (t *trialFlags) depthFor(designed int) int {
	if t.depth < 0 {
		return designed
	}
	return t.depth
}

// program is one entry of the registry run -b, trace -b and replay
// resolve against.
type program struct {
	name   string // the -b name; "" for entries only replay resolves
	build  func(extraWrites int) *engine.Program
	detect func(*engine.Outcome) bool
	opts   engine.Options
	depth  int // designed bug depth
}

// registry lists the nine Table-1 benchmarks, p1, mp2 and the Table-4
// applications, then the programs replay also matches bundles against:
// each benchmark's fixed variant and the litmus suite.
func registry() []program {
	var reg []program
	for _, b := range append(benchprog.All(), benchprog.P1(5), benchprog.MP2()) {
		reg = append(reg, program{b.Name, b.Program, b.Detect, b.Options(), b.Depth})
	}
	for _, a := range apps.All() {
		build := func(int) *engine.Program { return a.Program() }
		reg = append(reg, program{a.Name, build, (*engine.Outcome).Failed, a.Options(), 2})
	}
	for _, b := range benchprog.All() {
		reg = append(reg, program{build: func(int) *engine.Program { return b.FixedProgram() }})
	}
	for _, t := range litmus.Suite() {
		reg = append(reg, program{build: func(int) *engine.Program { return t.Program }})
	}
	return reg
}

func lookupProgram(name string) (program, error) {
	for _, p := range registry() {
		if p.name != "" && p.name == name {
			return p, nil
		}
	}
	return program{}, fmt.Errorf("unknown benchmark or application %q", name)
}

// trial is a -b program prepared under the trial flags: what run and
// trace execute.
type trial struct {
	program
	prog        *engine.Program
	est         harness.Estimate
	newStrategy func() engine.Strategy
}

// trial resolves -b name, sets the model, estimates k and kcom from
// profiling runs as the paper does, and builds the -strategy factory.
func (t *trialFlags) trial(name, model string, extraWrites int) (*trial, error) {
	p, err := lookupProgram(name)
	if err != nil {
		return nil, err
	}
	p.opts.Model = model
	prog := p.build(extraWrites)
	est := harness.EstimateParams(prog, 20, t.seed^0x5eed, p.opts)
	factory := strategies[string(t.strategy)](t.depthFor(p.depth), t.history)
	return &trial{p, prog, est, func() engine.Strategy { return factory(est) }}, nil
}

// failure is the first failing execution firstFailure found.
type failure struct {
	round int
	out   *engine.Outcome
	trace *replay.Trace             // the round's recorded decisions
	tel   *telemetry.EngineCounters // the round's counters (PCTWM change points)
}

// firstFailure runs rounds at seeds t.seed, t.seed+1, ... up to -runs on
// one pooled Runner, each under a fresh recorded strategy with fresh
// engine counters, and returns the first one tr.detect flags. A warm
// Runner executes the same run per seed as a fresh engine.Run
// (TestTraceEquivalence* pins this).
func (t *trialFlags) firstFailure(tr *trial) (failure, bool) {
	tel := &telemetry.EngineCounters{}
	opts := tr.opts
	opts.Telemetry = tel
	r := engine.NewRunner(tr.prog, opts)
	defer r.Close()
	for i := 0; i < t.runs; i++ {
		*tel = telemetry.EngineCounters{}
		rec := replay.NewRecorder(tr.newStrategy())
		if o := r.Run(rec, t.seed+int64(i)); tr.detect(o) {
			return failure{i, o, rec.Trace(), tel}, true
		}
	}
	return failure{}, false
}

// campaignFlags is the flag group bench and experiments share.
type campaignFlags struct {
	workers, maxRepros, ckptEvery                     int
	reproDir, ckptDir, resume, metricsAddr, pprofAddr string
	progress, coverage                                bool
}

func (c *cmd) campaignFlags() *campaignFlags {
	f := &campaignFlags{}
	c.IntVar(&f.workers, "workers", 1, "worker goroutines per trial batch (0 = GOMAXPROCS, 1 = serial); results are identical for every worker count")
	c.StringVar(&f.reproDir, "repro-dir", "", "write replayable repro bundles for failing trials under this directory")
	c.IntVar(&f.maxRepros, "max-repros", 3, "with -repro-dir: cap triaged bundles per trial batch")
	c.StringVar(&f.ckptDir, "checkpoint-dir", "", "write periodic durable campaign checkpoints under this directory")
	c.IntVar(&f.ckptEvery, "checkpoint-every", harness.DefaultCheckpointEvery, "checkpoint cadence in trials per batch")
	c.StringVar(&f.resume, "resume", "", "resume a checkpointed run from this directory (implies -checkpoint-dir)")
	c.StringVar(&f.metricsAddr, "metrics-addr", "", "serve campaign metrics on this address (/metrics Prometheus, /metrics.json, /debug/vars)")
	c.StringVar(&f.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (workers run under pprof labels)")
	c.BoolVar(&f.progress, "progress", false, "print a periodic one-line campaign status to stderr")
	c.BoolVar(&f.coverage, "coverage", false, "fingerprint each trial's behavior: saturation digests, behaviors/est_unseen on -progress and /metrics, repro bundles deduped by behavior")
	return f
}

// campaign is a started campaign group: the harness.Campaign template
// every trial batch of the command copies, and the services behind it.
type campaign struct {
	harness.Campaign
	c     *cmd
	stops []func()
}

// start checks the group and starts its services: the SIGINT/SIGTERM
// drain (the first signal cancels Context, so the command flushes partial
// results; a second kills the process), the metrics hub and its endpoint,
// pprof and the progress reporter.
func (f *campaignFlags) start(c *cmd) (*campaign, error) {
	// -resume is -checkpoint-dir plus loading whatever good generations
	// already exist; both at once must agree on the directory.
	if f.resume != "" {
		if f.ckptDir != "" && f.ckptDir != f.resume {
			return nil, fmt.Errorf("-resume %s conflicts with -checkpoint-dir %s", f.resume, f.ckptDir)
		}
		f.ckptDir = f.resume
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	cp := &campaign{c: c, stops: []func(){stopSignals}, Campaign: harness.Campaign{
		Workers: f.workers, Context: ctx, ReproDir: f.reproDir, MaxRepros: f.maxRepros, Coverage: f.coverage,
	}}
	if f.ckptDir != "" {
		cp.Checkpoint = &harness.CheckpointSpec{Dir: f.ckptDir, Every: f.ckptEvery, Resume: f.resume != "", Logf: c.logf}
	}
	if f.metricsAddr != "" || f.progress {
		cp.Metrics = &telemetry.Metrics{}
	}
	if f.metricsAddr != "" {
		bound, stop, err := cp.Metrics.ListenAndServe(f.metricsAddr)
		if err != nil {
			cp.stop()
			return nil, fmt.Errorf("metrics endpoint: %v", err)
		}
		cp.stops = append(cp.stops, stop)
		c.logf("serving metrics on http://%s/metrics", bound)
	}
	if f.pprofAddr != "" {
		bound, stop, err := telemetry.ListenAndServePprof(f.pprofAddr)
		if err != nil {
			cp.stop()
			return nil, fmt.Errorf("pprof endpoint: %v", err)
		}
		cp.stops = append(cp.stops, stop)
		c.logf("serving pprof on http://%s/debug/pprof/", bound)
	}
	if f.progress {
		cp.stops = append(cp.stops, telemetry.StartProgress(c.stderr, cp.Metrics, 2*time.Second))
	}
	return cp, nil
}

// stop flushes the final progress line, shuts the endpoints and the
// signal drain down, and notes a checkpoint directory that became
// unwritable. Calls after the first do nothing.
func (cp *campaign) stop() {
	if cp.stops == nil {
		return
	}
	for i := len(cp.stops) - 1; i >= 0; i-- {
		cp.stops[i]()
	}
	cp.stops = nil
	if cp.degraded() {
		cp.c.logf("durability: degraded (checkpoint directory became unwritable; results above are complete but not resumable)")
	}
}

func (cp *campaign) degraded() bool { return cp.Checkpoint != nil && cp.Checkpoint.Degraded() }
