// Package pctwm is a probabilistic concurrency testing library for weak
// memory programs, reproducing "Probabilistic Concurrency Testing for
// Weak Memory Programs" (Gao, Chakraborty, Kulahcioglu Ozkan, ASPLOS
// 2023).
//
// Programs are written against a C11-style atomics API (Load, Store, CAS,
// FetchAdd, Exchange, Fence with memory orders relaxed / acquire /
// release / acq-rel / seq-cst, plus non-atomic accesses) and executed by
// a controlled engine that plays the role of the paper's C11Tester
// substrate: threads are serialized, every read is resolved against the
// set of coherence-legal writes, and thread-local views with message
// "bags" implement the C11 semantics of the paper's Algorithm 2.
//
// Three testing strategies decide scheduling and read behaviour:
//
//   - NewRandomStrategy: C11Tester's naive random exploration;
//   - NewPCT: the priority-based PCT scheduler, adapted to weak memory
//     (reads pick uniformly among the legal candidates);
//   - NewPCTWM: the paper's contribution — it samples d communication
//     relations whose sources lie within history depth h, delaying the
//     selected sink events to run as late as possible and resolving all
//     other reads from the thread-local view.
//
// A typical test loop estimates the program parameters once and then runs
// many rounds:
//
//	p := pctwm.NewProgram("sb")
//	x := p.Loc("X", 0)
//	y := p.Loc("Y", 0)
//	p.AddThread(func(t *pctwm.Thread) {
//		t.Store(x, 1, pctwm.Relaxed)
//		t.Assert(t.Load(y, pctwm.Relaxed) == 1 || true, "...")
//	})
//	// ...
//	est := pctwm.Estimate(p, pctwm.Options{})
//	for seed := int64(0); seed < 1000; seed++ {
//		o := pctwm.Run(p, pctwm.NewPCTWM(2, 1, est.KCom), seed, pctwm.Options{StopOnBug: true})
//		if o.BugHit { /* found it */ }
//	}
//
// See the examples directory for complete programs, and the internal
// packages for the execution engine (internal/engine), the C11 axiom
// checker (internal/axiom), the benchmark suite (internal/benchprog) and
// the paper's experiment harness (internal/report).
package pctwm

import (
	"pctwm/internal/axiom"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/harness"
	"pctwm/internal/memmodel"
)

// Memory orders (C11 memory_order_* plus NonAtomic for plain accesses).
const (
	NonAtomic = memmodel.NonAtomic
	Relaxed   = memmodel.Relaxed
	Acquire   = memmodel.Acquire
	Release   = memmodel.Release
	AcqRel    = memmodel.AcqRel
	SeqCst    = memmodel.SeqCst
)

// Core types, re-exported from the engine and memory model.
type (
	// MemoryOrder is a C11 memory order.
	MemoryOrder = memmodel.Order
	// Loc identifies a shared memory location.
	Loc = memmodel.Loc
	// Value is the value stored at a location.
	Value = memmodel.Value
	// ThreadID identifies a simulated thread.
	ThreadID = memmodel.ThreadID
	// Program is an immutable weak-memory test program.
	Program = engine.Program
	// Thread is a simulated thread's handle to the engine.
	Thread = engine.Thread
	// ThreadFunc is the body of a simulated thread.
	ThreadFunc = engine.ThreadFunc
	// ThreadHandle identifies a spawned thread for Join.
	ThreadHandle = engine.ThreadHandle
	// Strategy decides scheduling and read behaviour for an execution.
	Strategy = engine.Strategy
	// Options configure one execution.
	Options = engine.Options
	// Outcome summarizes one execution.
	Outcome = engine.Outcome
	// Runner executes one program repeatedly, pooling engine state across
	// runs so a trial loop allocates near-zero memory per run.
	Runner = engine.Runner
	// Recording is the execution graph captured with Options.Record.
	Recording = engine.Recording
	// TrialResult aggregates repeated test rounds.
	TrialResult = harness.TrialResult
	// ProgramEstimate holds the measured k and kcom parameters.
	ProgramEstimate = harness.Estimate
)

// NewProgram creates an empty program with a diagnostic name.
func NewProgram(name string) *Program { return engine.NewProgram(name) }

// Run executes the program once under the strategy with the given seed.
// Repeated-trial loops should prefer NewRunner (or RunTrials), which
// reuses engine state between runs.
func Run(p *Program, s Strategy, seed int64, opts Options) *Outcome {
	return engine.Run(p, s, seed, opts)
}

// NewRunner prepares a reusable Runner for the program: location tables,
// message storage, thread shells and their coroutines survive between
// Run calls. For a fixed strategy and seed, a run's Outcome is identical
// whether the Runner is fresh or reused, and a Runner stays usable after a
// panic of the strategy or the engine escaped its Run. A Runner is not
// safe for concurrent use; give each worker goroutine its own.
func NewRunner(p *Program, opts Options) *Runner { return engine.NewRunner(p, opts) }

// NewRandomStrategy returns the C11Tester-style naive random strategy:
// uniform thread choice, uniform reads-from choice.
func NewRandomStrategy() Strategy { return core.NewRandom() }

// NewPCT returns the weak-memory PCT variant with bug depth d and an
// estimate k of the number of program events.
func NewPCT(d, k int) Strategy { return core.NewPCT(d, k) }

// NewPCTWM returns the PCTWM strategy with bug depth d, history depth h,
// and an estimate kcom of the number of communication events.
func NewPCTWM(d, h, kcom int) Strategy { return core.NewPCTWM(d, h, kcom) }

// NewPOS returns the partial order sampling baseline (Yuan et al., CAV
// 2018; discussed in the paper's related work).
func NewPOS() Strategy { return core.NewPOS() }

// Estimate profiles the program under opts (its memory model included)
// with random testing and returns the mean event count k and
// communication event count kcom, the inputs PCT and PCTWM expect. It
// takes the mean of 50 runs from a fixed seed, the paper's Table 1 rule
// and the one every pctwm command uses.
func Estimate(p *Program, opts Options) ProgramEstimate {
	return harness.Profile(p, opts)
}

// RunTrials executes the program for `runs` rounds on one pooled Runner
// and counts the rounds detect flags as bug hits. Round i runs with
// seed+i; results are reproducible.
func RunTrials(p *Program, detect func(*Outcome) bool, newStrategy func() Strategy, runs int, seed int64, opts Options) TrialResult {
	return harness.RunCampaign(p, detect, newStrategy, runs, seed, opts, harness.Campaign{Workers: 1})
}

// PCTBound returns PCT's theoretical lower bound 1/(t·k^(d−1)) on the
// probability of detecting a depth-d bug (paper §2.2).
func PCTBound(t, k, d int) float64 { return core.PCTBound(t, k, d) }

// PCTWMBound returns PCTWM's theoretical lower bound 1/(h·kcom)^d (paper
// §5.4).
func PCTWMBound(kcom, d, h int) float64 { return core.PCTWMBound(kcom, d, h) }

// CheckConsistency verifies a recorded execution against the axioms of
// the memory model that recorded it (Recording.Model; the C11 axioms of
// the paper's §4 for rc11 and for hand-built recordings) and returns a
// description of each violation (empty when consistent). Record the
// execution by running with Options{Record: true}. A recording that names
// an event it does not contain is an error.
func CheckConsistency(rec *Recording) ([]string, error) {
	g, err := axiom.FromRecording(rec)
	if err != nil {
		return nil, err
	}
	var msgs []string
	for _, v := range g.CheckModel(rec.Model) {
		msgs = append(msgs, v.String())
	}
	return msgs, nil
}
