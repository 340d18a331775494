// Package harness runs repeated randomized test trials, estimates the
// PCT/PCTWM input parameters (the program event count k and communication
// event count kcom), and aggregates hit rates and timing — the machinery
// behind the paper's evaluation (§6).
//
// Trial loops are built on engine.Runner: every worker owns one pooled
// Runner and one strategy value (Strategy.Begin resets per run), so a
// steady-state loop performs near-zero allocations per trial.
package harness

import (
	"fmt"
	"time"

	"pctwm/internal/core"
	"pctwm/internal/coverage"
	"pctwm/internal/engine"
	"pctwm/internal/litmus"
	"pctwm/internal/stats"
	"pctwm/internal/telemetry"
)

// Estimate holds measured program parameters, obtained like the paper by
// profiling runs: k is the estimated number of shared-memory events, kcom
// the estimated number of communication events (Table 1).
type Estimate struct {
	K    int
	KCom int
	// Threads is the number of root threads.
	Threads int
}

// Profile estimates prog's k and kcom under opts (its model included) by
// the one rule every command, report section and gate uses, Table 1's:
// the mean of 50 Random runs from the fixed seed 20230325, the
// experiments' default. An estimate is a property of the program and its
// model, so it does not move with a campaign's seed.
func Profile(prog *engine.Program, opts engine.Options) Estimate {
	return EstimateParams(prog, 50, 20230325, opts)
}

// EstimateParams profiles prog with the naive random strategy and returns
// the mean observed event counts, rounded to nearest. The mean (rather
// than the maximum) keeps the sampled change points and communication
// indices within the range of events an execution actually encounters.
//
// It is the mechanism Profile calls. The repository benchmark (bench/),
// whose sites move to Profile with its next revision, and tests that pin
// their own runs and seed for a golden still call it directly.
func EstimateParams(prog *engine.Program, runs int, seed int64, opts engine.Options) Estimate {
	est := Estimate{Threads: prog.NumThreads()}
	if runs < 1 {
		runs = 1
	}
	r := engine.NewRunner(prog, opts)
	defer r.Close()
	strat := core.NewRandom()
	var sumK, sumKCom int
	for i := 0; i < runs; i++ {
		o := r.Run(strat, seed+int64(i))
		sumK += o.Events
		sumKCom += o.CommEvents
	}
	est.K = (sumK + runs/2) / runs
	est.KCom = (sumKCom + runs/2) / runs
	if est.K < 1 {
		est.K = 1
	}
	if est.KCom < 1 {
		est.KCom = 1
	}
	return est
}

// TrialResult aggregates a batch of runs. Its JSON form is the totals a
// campaign checkpoint stores (see campaignState); the fields tagged "-"
// describe one session and are not stored.
type TrialResult struct {
	Runs     int `json:"runs"`
	Hits     int `json:"hits"`
	Aborted  int `json:"aborted"`
	Deadlock int `json:"deadlock"`
	// Panics counts trials whose panic escaped the engine (a strategy
	// callback or an engine invariant; the program's panics are crashes).
	// None is a hit: the worker replaced its strategy, kept its Runner and
	// went on (see RunCampaign).
	Panics int `json:"panics"`
	// Timeouts is never set: a run has no wall-clock bound. The field and
	// its JSON key stay because the repository benchmark (bench/) reads it
	// and checkpoint payloads carry the key.
	Timeouts int `json:"timeouts"`
	// Canceled counts trials that campaign cancellation cut short. None of
	// them is in Runs.
	Canceled int `json:"canceled"`
	// TotalEvents across all runs, for averages.
	TotalEvents int `json:"total_events"`
	// Elapsed is the summed per-run execution time. With parallel workers
	// this is aggregate CPU time across all workers, not wall-clock time;
	// use Wall for the batch's real duration.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Wall is the wall-clock duration of the whole batch (equal to Elapsed
	// up to loop overhead when the batch ran serially).
	Wall time.Duration `json:"wall_ns"`
	// Interrupted marks a campaign stopped early by context cancellation:
	// Runs reflects completed trials only.
	Interrupted bool `json:"-"`
	// Failures lists the captured failing trials with their flake-triage
	// verdicts and repro-bundle paths (populated only when
	// Campaign.ReproDir is set; at most Campaign.MaxRepros entries).
	Failures []TrialFailure `json:"failures,omitempty"`
	// Nondeterministic counts captured failures whose triage re-run
	// diverged from the original outcome for the same (program, strategy,
	// seed) — an engine or strategy determinism bug.
	Nondeterministic int `json:"nondeterministic"`
	// Telemetry holds the merged per-worker engine counters when the
	// campaign collected them (Campaign.Telemetry); nil otherwise, also
	// for a campaign with coverage alone. Totals are bit-identical
	// between serial and parallel campaigns over the same seed set.
	Telemetry *telemetry.EngineCounters `json:"telemetry,omitempty"`
	// Coverage is the campaign's merged behavior set (Campaign.Coverage):
	// every complete trial's fingerprint with first-seen trial indices
	// and counts. Like Telemetry it is bit-identical for every worker
	// count and across kill/resume (entries key novelty by the
	// campaign-global trial index).
	Coverage *coverage.Set `json:"coverage,omitempty"`
	// ResumedRuns is how many of Runs were restored from a checkpoint
	// rather than executed by this process (0 for fresh campaigns).
	ResumedRuns int `json:"-"`
	// Durability is "" for a fully durable campaign and
	// DurabilityDegraded when the checkpoint directory became unwritable
	// mid-campaign: the campaign kept running, but its state and repro
	// bundles may not all have reached disk.
	Durability string `json:"-"`
}

// DurabilityDegraded marks a campaign whose durable sinks failed
// persistently (see Campaign.Checkpoint / CheckpointSpec.Degraded).
const DurabilityDegraded = "degraded"

// Rate returns the bug hitting rate in percent (the paper's metric).
// Zero-guarded: an empty batch rates 0, never NaN (which would poison
// JSON encoding downstream).
func (r TrialResult) Rate() float64 {
	if r.Runs == 0 {
		return 0
	}
	return 100 * float64(r.Hits) / float64(r.Runs)
}

// TrialsPerSec returns the batch completion rate against wall-clock
// time. Zero-guarded: zero-trial or zero-duration batches (interrupted
// campaigns, sub-resolution timers) rate 0, never NaN/Inf.
func (r TrialResult) TrialsPerSec() float64 {
	if r.Runs == 0 || r.Wall <= 0 {
		return 0
	}
	return float64(r.Runs) / r.Wall.Seconds()
}

// NsPerEvent returns the mean execution cost per memory event in
// nanoseconds, zero-guarded like Rate and TrialsPerSec.
func (r TrialResult) NsPerEvent() float64 {
	if r.TotalEvents == 0 || r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Elapsed.Nanoseconds()) / float64(r.TotalEvents)
}

// CI95 returns the 95%% Wilson confidence interval of the hit rate, in
// percent.
func (r TrialResult) CI95() (low, high float64) {
	return stats.Wilson95(r.Hits, r.Runs)
}

// AvgEvents returns the mean number of memory events per run.
func (r TrialResult) AvgEvents() float64 {
	if r.Runs == 0 {
		return 0
	}
	return float64(r.TotalEvents) / float64(r.Runs)
}

// AvgTime returns the mean execution (CPU) time per run. This is a per-run
// cost metric; it does not shrink when the batch runs on more workers.
func (r TrialResult) AvgTime() time.Duration {
	if r.Runs == 0 {
		return 0
	}
	return r.Elapsed / time.Duration(r.Runs)
}

func (r TrialResult) String() string {
	s := fmt.Sprintf("hits %d/%d (%.1f%%), avg %.0f events, %v cpu/run, %v wall",
		r.Hits, r.Runs, r.Rate(), r.AvgEvents(),
		r.AvgTime().Round(time.Microsecond), r.Wall.Round(time.Millisecond))
	if r.Panics > 0 {
		s += fmt.Sprintf(", %d panic(s)", r.Panics)
	}
	if r.Nondeterministic > 0 {
		s += fmt.Sprintf(", %d NONDETERMINISTIC", r.Nondeterministic)
	}
	if r.Coverage != nil {
		s += fmt.Sprintf(", %d behavior(s)", r.Coverage.Len())
	}
	if r.ResumedRuns > 0 {
		s += fmt.Sprintf(", %d resumed", r.ResumedRuns)
	}
	if r.Durability == DurabilityDegraded {
		s += ", durability DEGRADED"
	}
	if r.Interrupted {
		s += ", interrupted"
	}
	return s
}

// StrategyFactory builds a fresh strategy per run from the measured
// program parameters.
type StrategyFactory func(est Estimate) engine.Strategy

// C11Tester is the naive-random baseline factory.
func C11Tester() StrategyFactory {
	return func(Estimate) engine.Strategy { return core.NewRandom() }
}

// POSFactory builds the partial-order-sampling baseline (related work,
// paper §7).
func POSFactory() StrategyFactory {
	return func(Estimate) engine.Strategy { return core.NewPOS() }
}

// PCTFactory builds the PCT variant with bug depth d; k comes from the
// estimate.
func PCTFactory(d int) StrategyFactory {
	return func(est Estimate) engine.Strategy { return core.NewPCT(d, est.K) }
}

// PCTWMFactory builds PCTWM with bug depth d and history depth h; kcom
// comes from the estimate.
func PCTWMFactory(d, h int) StrategyFactory {
	return func(est Estimate) engine.Strategy { return core.NewPCTWM(d, h, est.KCom) }
}

// RunLitmus runs lt under opts as one campaign whose detect hook tallies
// the outcome histogram against opts.Model's table, and returns the
// test's conformance report, which fails on any quarantined panic, with
// the campaign result.
func RunLitmus(lt *litmus.Test, newStrategy func() engine.Strategy, runs int, seed int64, opts engine.Options, camp Campaign) (*litmus.Report, TrialResult) {
	rep := lt.Tally(opts.Model)
	res := RunCampaign(lt.Program, rep.Detect, newStrategy, runs, seed, opts, camp)
	rep.Finish(res.Runs, res.Aborted, res.Deadlock, res.Panics)
	return rep, res
}
