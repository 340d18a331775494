package harness

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pctwm/internal/checkpoint"
	"pctwm/internal/coverage"
	"pctwm/internal/engine"
	"pctwm/internal/replay"
	"pctwm/internal/telemetry"
)

// ResolveWorkers maps a -workers style flag value to an actual worker
// count: 0 (or negative) selects GOMAXPROCS, and the count is capped at
// the number of runs so no worker sits idle from the start.
func ResolveWorkers(workers, runs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > runs {
		workers = runs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Campaign configures a trial batch: worker count, cooperative
// cancellation, and the repro-bundle sink with its flake triage. The zero
// value runs on GOMAXPROCS workers with no bundles; set Workers: 1 for a
// single worker. A worker wedged outside the engine's step loop never
// returns, and neither does its campaign.
type Campaign struct {
	// Workers spreads the rounds over this many goroutines (0 =
	// GOMAXPROCS). Hit counts and event totals are identical for every
	// worker count.
	Workers int
	// Context is the campaign's one stop source: canceling it makes the
	// workers stop claiming new rounds and aborts each one's in-flight run
	// in the engine's step loop (CanceledError). The merged result is
	// marked Interrupted with Runs reflecting completed trials only.
	Context context.Context
	// ReproDir enables the repro sink: the first MaxRepros failing trials
	// (bug hits, races, panics, deadlocks — not step-limit aborts or
	// cancellations) are re-run once on a fresh Runner with a decision
	// recorder, triaged for determinism, and written as JSON bundles under
	// this directory (see replay.Bundle / pctwm replay).
	ReproDir string
	// MaxRepros caps how many failures are triaged and bundled
	// (default 3 when ReproDir is set). The cap bounds the extra work:
	// the happy path and all failures beyond the cap cost nothing.
	MaxRepros int
	// Telemetry enables per-worker engine counters: every worker's Runner
	// gets its own telemetry.EngineCounters shard (plain fields, no
	// hot-path synchronization), merged at the end into
	// TrialResult.Telemetry and Metrics. A caller's
	// engine.Options.Telemetry is ignored: workers never share a shard.
	Telemetry bool
	// Coverage enables behavioral coverage and no engine counters: every
	// trial's engine computes a canonical behavior fingerprint
	// (engine.Options.Coverage), each worker folds complete trials into a
	// private coverage.Set shard, and the shards merge into
	// TrialResult.Coverage, bit-identical for every worker count.
	Coverage bool
	// Metrics, when non-nil, receives campaign-level observations (trial
	// counts and durations, quarantine/cancel counters,
	// repro triage verdicts, worker utilization) — the hub behind the
	// -metrics-addr endpoint and the -progress reporter. Updated once per
	// trial with atomics; never touched on the engine hot path.
	Metrics *telemetry.Metrics
	// Checkpoint, when non-nil with a Dir, arms the durable
	// checkpoint/resume layer: the campaign runs in chunks and persists
	// its cumulative state after each one (see CheckpointSpec). One spec
	// is shared across all campaigns of a process.
	Checkpoint *CheckpointSpec
	// CheckpointCell disambiguates campaigns that share a program, seed,
	// runs and model (e.g. different strategy columns of a bench matrix,
	// or one strategy at different depths) inside the checkpoint
	// directory. Ignored without Checkpoint.
	CheckpointCell string
}

// defaultMaxRepros bounds bundle writing + flake triage when the caller
// enables ReproDir without choosing a cap.
const defaultMaxRepros = 3

// TrialFailure describes one captured failing trial (at most
// Campaign.MaxRepros are captured per campaign).
type TrialFailure struct {
	// Seed is the failing round's engine seed.
	Seed int64
	// Kind classifies the failure: "bug", "race", "panic", "deadlock" or
	// "harness-panic" (a panic that escaped the engine — strategy or
	// harness code).
	Kind string
	// BehaviorFP is the failing trial's behavior fingerprint (0 when the
	// campaign ran without Campaign.Coverage or the trial had no
	// outcome). With coverage on, the repro budget is keyed by it: one
	// bundle per distinct failure behavior.
	BehaviorFP uint64 `json:"behavior_fp,omitempty"`
	// Msg is a short human-readable description.
	Msg string
	// Triage is the flake-triage verdict (replay.TriageDeterministic or
	// replay.TriageNondeterministic).
	Triage string
	// BundlePath is the written repro bundle ("" if writing failed; Msg
	// then carries the error).
	BundlePath string
}

// RunCampaign is the trial loop: it executes prog for runs rounds,
// counting rounds whose outcome detect flags as a bug hit. The rounds are
// claimed from a shared atomic counter by camp.Workers goroutines, each
// owning one pooled engine.Runner and one strategy value from newStrategy
// (Strategy.Begin resets per round). Aggregation is lock-free: every
// worker fills its own TrialResult, merged once after the pool drains.
//
// Round i always runs with seed+i, independent of which worker claims it,
// so hit counts and event totals are identical for every worker count —
// only Wall changes. Elapsed sums per-run execution time across workers
// (aggregate CPU time); Wall is the batch's wall-clock duration.
//
// The campaign adds a resilience layer: panic quarantine, cancellation
// through Campaign.Context, and the repro sink. See Campaign for the
// knobs.
//
// Panic quarantine: a panic that escapes engine.Runner.Run (a strategy
// callback or an engine invariant, not the program) is recovered at the
// trial boundary and counted in TrialResult.Panics, never as a hit. Run
// restored the Runner, so the worker keeps it and replaces only the
// strategy, whose state is its own — one hostile trial never poisons a
// sibling worker's trials or the rest of the worker's own rounds.
//
// The rounds run in chunks of consecutive indices, each on its own worker
// pool, and every chunk's result is folded into the campaign's. Without
// Campaign.Checkpoint the whole campaign is one chunk. With it armed the
// chunks are CheckpointSpec.Every rounds long: the campaign first resumes
// from the newest good checkpoint generation (with Resume), and after
// each cleanly finished chunk it persists its cumulative state, so a
// killed process resumes with bit-identical totals (see CheckpointSpec).
// One repro sink serves every chunk, so the MaxRepros budget and the
// behavior dedupe set span the whole campaign, resumed sessions included.
func RunCampaign(prog *engine.Program, detect func(*engine.Outcome) bool,
	newStrategy func() engine.Strategy, runs int, seed int64, opts engine.Options, camp Campaign) TrialResult {
	var res TrialResult
	if runs <= 0 {
		return res
	}
	// Workers collect into private counter shards (the engine writes them
	// with plain fields), so a caller's shard is stripped: sharing one
	// across workers would race.
	opts.Telemetry = nil
	opts.Coverage = opts.Coverage || camp.Coverage
	ck, at := openCheckpoint(prog, seed, runs, opts.Model, camp, &res)
	bundleFS := checkpoint.OS
	if ck != nil {
		bundleFS = ck.spec.fsys()
	}
	sink := newReproSink(prog, newStrategy, opts, camp, bundleFS, &res)
	for at < runs {
		n := runs - at
		if ck != nil {
			n = min(n, ck.spec.every())
		}
		chunk := runChunk(prog, detect, newStrategy, at, n, seed, opts, camp, sink)
		mergeTrialResults(&res, chunk)
		if chunk.Interrupted {
			// Partial chunks reach the returned result but never a
			// checkpoint: durable state advances by whole chunks only.
			break
		}
		at += n
		if ck != nil {
			sink.fold(&res)
			if ck.save(&res, at, runs, camp.Metrics) {
				res.Interrupted = true // the test kill hook fired
				break
			}
		}
	}
	sink.fold(&res)
	if ck != nil && ck.spec.Degraded() {
		res.Durability = DurabilityDegraded
	}
	if res.Interrupted && camp.Metrics != nil {
		camp.Metrics.CampaignInterrupted()
	}
	return res
}

// runChunk runs the n rounds starting at index first (seeds seed+first
// onwards) on a fresh worker pool and returns their merged result.
func runChunk(prog *engine.Program, detect func(*engine.Outcome) bool,
	newStrategy func() engine.Strategy, first, n int, seed int64, opts engine.Options, camp Campaign, sink *reproSink) TrialResult {
	var res TrialResult
	workers := ResolveWorkers(camp.Workers, n)
	if camp.Metrics != nil {
		camp.Metrics.AddExpected(n)
	}

	// pprof labels: workers run under worker/strategy/program labels so
	// CPU profiles of long campaigns attribute samples per worker and per
	// configuration. The strategy label comes from the strategy value each
	// worker creates anyway — RunCampaign never makes extra newStrategy
	// calls (some callers hand out stateful strategies by call order).
	progName := prog.Name()

	// The engine polls the campaign context inside the step loop, so
	// cancellation aborts in-flight runs, not just pending ones.
	if camp.Context != nil {
		opts.Context = camp.Context
	}

	start := time.Now()
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		locals = make([]TrialResult, workers)
	)
	for w := 0; w < workers; w++ {
		var tel *telemetry.EngineCounters
		if camp.Telemetry {
			tel = &telemetry.EngineCounters{}
		}
		var cov *coverage.Set
		if camp.Coverage {
			cov = &coverage.Set{}
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			strat := newStrategy()
			labeledWorker(camp.Context, w, strat.Name(), progName, func() {
				locals[w] = runWorker(prog, detect, strat, newStrategy, first, n, seed, opts, &next, camp.Context, sink, tel, camp.Metrics, cov)
			})
		}(w)
	}
	wg.Wait()

	for _, l := range locals {
		mergeTrialResults(&res, l)
	}
	if camp.Metrics != nil && res.Telemetry != nil {
		camp.Metrics.MergeEngine(res.Telemetry)
	}
	res.Wall = time.Since(start)
	return res
}

// labeledWorker runs f under pprof goroutine labels naming the worker,
// strategy and program, so CPU/goroutine profiles of long campaigns can
// be filtered per worker and per configuration.
func labeledWorker(ctx context.Context, w int, strategy, program string, f func()) {
	if ctx == nil {
		ctx = context.Background()
	}
	pprof.Do(ctx, pprof.Labels(
		"pctwm_worker", strconv.Itoa(w),
		"pctwm_strategy", strategy,
		"pctwm_program", program,
	), func(context.Context) { f() })
}

// mergeTrialResults folds r into res: a worker's local result (with its
// telemetry and coverage shards) into its chunk's, or a chunk's into the
// campaign's. The totals merge commutatively, so they do not depend on
// the worker count, the merge order or where chunks split: coverage
// novelty is keyed by campaign-global round indices. Telemetry and
// coverage are adopted while res has none and merged after that, so no
// container is copied.
func mergeTrialResults(res *TrialResult, r TrialResult) {
	res.Runs += r.Runs
	res.Hits += r.Hits
	res.Aborted += r.Aborted
	res.Deadlock += r.Deadlock
	res.Panics += r.Panics
	res.Canceled += r.Canceled
	res.TotalEvents += r.TotalEvents
	res.Elapsed += r.Elapsed
	res.Wall += r.Wall
	res.Interrupted = res.Interrupted || r.Interrupted
	switch {
	case res.Telemetry == nil:
		res.Telemetry = r.Telemetry
	case r.Telemetry != nil:
		res.Telemetry.Merge(r.Telemetry)
	}
	switch {
	case res.Coverage == nil:
		res.Coverage = r.Coverage
	case r.Coverage != nil:
		res.Coverage.Merge(r.Coverage)
	}
}

// panicInfo captures a panic that escaped the engine during one trial.
type panicInfo struct {
	val   string
	stack string
}

// safeRun executes one trial with a recover boundary: a panic out of
// Runner.Run (a strategy or engine bug — the program's own panics surface
// as PanicError outcomes) is converted into a structured panicInfo, with
// the stack only withStack (for a repro bundle), instead of killing the
// worker.
func safeRun(r *engine.Runner, strat engine.Strategy, seed int64, withStack bool) (o *engine.Outcome, pan *panicInfo) {
	defer func() {
		if v := recover(); v != nil {
			pan = &panicInfo{val: fmt.Sprint(v)}
			if withStack {
				pan.stack = string(debug.Stack())
			}
		}
	}()
	return r.Run(strat, seed), nil
}

// runWorker drains the chunk's n rounds, starting at campaign index
// first, from the shared counter next on one pooled Runner, applying the
// per-trial resilience protocol: cancellation check, panic quarantine,
// outcome classification, failure capture, and (when armed) telemetry:
// tel is this worker's private engine-counter shard, metrics the shared
// campaign hub (atomics, touched once per trial). strat is the worker's
// already-created strategy (its Name labels the worker's pprof context);
// newStrategy only mints the replacements of a strategy that panicked.
func runWorker(prog *engine.Program, detect func(*engine.Outcome) bool,
	strat engine.Strategy, newStrategy func() engine.Strategy, first, n int, seed int64, opts engine.Options,
	next *atomic.Int64, ctx context.Context, sink *reproSink,
	tel *telemetry.EngineCounters, metrics *telemetry.Metrics, covSet *coverage.Set) TrialResult {
	var local TrialResult
	opts.Telemetry = tel
	if metrics != nil {
		metrics.WorkerStarted()
		defer metrics.WorkerDone()
	}
	r := engine.NewRunner(prog, opts)
	defer r.Close()
	for {
		j := int(next.Add(1)) - 1
		if j >= n {
			break
		}
		i := first + j // the campaign-global round index
		if ctx != nil && ctx.Err() != nil {
			local.Interrupted = true
			break
		}
		s := seed + int64(i)
		o, pan := safeRun(r, strat, s, false)
		if pan != nil {
			// Quarantine: count the panic, replace the strategy and keep
			// draining rounds on the Runner, which Run restored.
			local.Runs++
			local.Panics++
			if metrics != nil {
				metrics.ObserveTrial(telemetry.TrialObs{Quarantined: true})
			}
			if sink != nil {
				sink.capture(s, 0, "harness-panic", "panic escaped the engine: "+pan.val,
					replay.OutcomeSummary{}, pan)
			}
			strat = newStrategy()
			continue
		}
		if o.Canceled {
			// The campaign's cancel cut the trial short: a partial
			// execution, so not a run, and never classified.
			local.Canceled++
			local.Interrupted = true
			if metrics != nil {
				metrics.ObserveTrial(telemetry.TrialObs{Canceled: true})
			}
			break
		}
		local.Runs++
		local.TotalEvents += o.Events
		local.Elapsed += o.Duration
		hit := detect(o)
		// Coverage: only complete executions define a behavior (a run cut
		// short by the step limit observed a prefix, which would make the
		// census ill-defined). The trial is keyed by its campaign-global
		// index.
		behaviorSeen := covSet != nil && o.Err == nil
		if behaviorSeen {
			covSet.Observe(o.BehaviorFP, int64(i))
		}
		if metrics != nil {
			metrics.ObserveTrial(telemetry.TrialObs{
				Duration:    o.Duration,
				Events:      o.Events,
				Hit:         hit,
				Deadlocked:  o.Deadlocked,
				BehaviorFP:  o.BehaviorFP,
				HasBehavior: behaviorSeen,
			})
		}
		if o.Aborted {
			local.Aborted++
		}
		if o.Deadlocked {
			local.Deadlock++
		}
		if hit {
			local.Hits++
		}
		if sink != nil {
			if kind, failing := classifyFailure(o, hit); failing {
				sink.capture(s, o.BehaviorFP, kind, failureMsg(o, kind), replay.Summarize(o), nil)
			}
		}
	}
	local.Telemetry, local.Coverage = tel, covSet
	return local
}

// classifyFailure decides whether a trial outcome is worth a repro bundle
// and names its kind. As in Outcome.Failed, step-limit aborts (common and
// benign in bounded benchmarks) and cancellations are not failures.
func classifyFailure(o *engine.Outcome, hit bool) (string, bool) {
	if o.Err != nil {
		switch o.Err.Kind {
		case engine.PanicError:
			return "panic", true
		case engine.DeadlockError:
			return "deadlock", true
		}
	}
	if hit {
		if !o.BugHit && len(o.Races) > 0 {
			return "race", true
		}
		return "bug", true
	}
	return "", false
}

// failureMsg renders a short description of the failing outcome.
func failureMsg(o *engine.Outcome, kind string) string {
	if o.Err != nil {
		return o.Err.Msg
	}
	if len(o.BugMessages) > 0 {
		return o.BugMessages[0]
	}
	if kind == "race" && len(o.Races) > 0 {
		return fmt.Sprintf("%d data race(s) detected", len(o.Races))
	}
	return kind
}

// reproSink captures the first max failing trials of a campaign: each is
// re-run once on a fresh Runner under a decision recorder (flake triage +
// schedule capture) and written as a replay.Bundle under dir.
type reproSink struct {
	prog        *engine.Program
	newStrategy func() engine.Strategy
	opts        engine.Options
	dir         string
	max         int
	// fs routes bundle writes through the checkpoint spec's filesystem
	// when one is armed, so bundle durability is hardened and
	// fault-testable like checkpoints.
	fs checkpoint.FS
	// metrics, when non-nil, receives one ReproTriaged observation per
	// written bundle.
	metrics *telemetry.Metrics

	// dedupe keys the capture budget by behavior fingerprint (campaigns
	// with Coverage on): a failure behavior already bundled is never
	// triaged again, so the max slots go to distinct behaviors instead of
	// the first max arrivals of the same one.
	dedupe bool

	mu       sync.Mutex
	claimed  int             // capture slots consumed (≤ max)
	seen     map[uint64]bool // bundled behavior fingerprints (dedupe)
	captured []TrialFailure
	nondet   int
}

// newReproSink builds the campaign's repro sink, nil without
// camp.ReproDir. It starts from the failures already in res (restored
// from a checkpoint): they count against the MaxRepros budget (default
// 3) and their behaviors against the dedupe set, so a resumed campaign
// captures exactly the failures an uninterrupted one would.
func newReproSink(prog *engine.Program, newStrategy func() engine.Strategy, opts engine.Options,
	camp Campaign, fs checkpoint.FS, res *TrialResult) *reproSink {
	if camp.ReproDir == "" {
		return nil
	}
	s := &reproSink{
		prog: prog, newStrategy: newStrategy, opts: opts,
		dir: camp.ReproDir, max: camp.MaxRepros, fs: fs,
		metrics: camp.Metrics, dedupe: camp.Coverage,
		claimed: len(res.Failures), seen: make(map[uint64]bool),
		captured: res.Failures, nondet: res.Nondeterministic,
	}
	if s.max <= 0 {
		s.max = defaultMaxRepros
	}
	for _, f := range res.Failures {
		if f.BehaviorFP != 0 {
			s.seen[f.BehaviorFP] = true
		}
	}
	return s
}

// fold copies the captured failures into res (no-op on a nil sink).
func (s *reproSink) fold(res *TrialResult) {
	if s == nil {
		return
	}
	s.mu.Lock()
	res.Failures = append([]TrialFailure(nil), s.captured...)
	res.Nondeterministic = s.nondet
	s.mu.Unlock()
}

// capture triages and bundles one failing trial if a slot is free. fp is
// the trial's behavior fingerprint (0 without coverage or for harness
// panics, which have no outcome — those always consume a slot). orig
// summarizes the campaign trial; pan is non-nil when the trial panicked
// outside the engine.
func (s *reproSink) capture(seed int64, fp uint64, kind, msg string, orig replay.OutcomeSummary, pan *panicInfo) {
	s.mu.Lock()
	if s.claimed >= s.max || (s.dedupe && fp != 0 && s.seen[fp]) {
		s.mu.Unlock()
		return
	}
	if s.dedupe && fp != 0 {
		s.seen[fp] = true
	}
	s.claimed++
	s.mu.Unlock()

	fail := s.triage(seed, fp, kind, msg, orig, pan)
	s.mu.Lock()
	s.captured = append(s.captured, fail)
	if fail.Triage == replay.TriageNondeterministic {
		s.nondet++
	}
	s.mu.Unlock()
	if s.metrics != nil {
		s.metrics.ReproTriaged(fail.Triage)
	}
}

// triage re-runs the failing seed on a fresh Runner with a recorder
// wrapped around a fresh strategy, compares the re-run against the
// original outcome (determinism verdict), and writes the repro bundle.
// The re-run strips the campaign Context so the recorded trace covers a
// complete execution.
func (s *reproSink) triage(seed int64, fp uint64, kind, msg string, orig replay.OutcomeSummary, pan *panicInfo) TrialFailure {
	fail := TrialFailure{Seed: seed, Kind: kind, Msg: msg, BehaviorFP: fp}

	reOpts := s.opts
	reOpts.Context = nil

	strat := s.newStrategy()
	stratName := strat.Name()
	rec := replay.NewRecorder(strat)
	fresh := engine.NewRunner(s.prog, reOpts)
	o2, pan2 := safeRun(fresh, rec, seed, true)
	fresh.Close()

	bundle := replay.NewBundle(s.prog, stratName, seed, reOpts)
	bundle.Trace = rec.Trace()
	bundle.FirstOutcome = orig
	bundle.BehaviorFP = fp
	switch {
	case pan2 != nil:
		bundle.HarnessPanic = pan2.val
		bundle.Stack = rec.PanicStack()
		if bundle.Stack == "" {
			bundle.Stack = pan2.stack
		}
		if pan != nil && pan.val == pan2.val {
			fail.Triage = replay.TriageDeterministic
		} else {
			fail.Triage = replay.TriageNondeterministic
		}
	case pan != nil:
		// The campaign trial panicked but the re-run completed: the panic
		// is not a function of (program, strategy, seed).
		bundle.Outcome = replay.Summarize(o2)
		fail.Triage = replay.TriageNondeterministic
	default:
		bundle.Outcome = replay.Summarize(o2)
		if diffs := orig.Diff(bundle.Outcome); len(diffs) == 0 {
			fail.Triage = replay.TriageDeterministic
		} else {
			fail.Triage = replay.TriageNondeterministic
			fail.Msg += " [rerun diverged: " + strings.Join(diffs, ", ") + "]"
		}
	}
	bundle.Triage = fail.Triage

	path, err := bundle.WriteFileFS(s.fs, s.dir)
	if err != nil {
		fail.Msg += " [bundle write failed: " + err.Error() + "]"
	} else {
		fail.BundlePath = path
	}
	return fail
}
