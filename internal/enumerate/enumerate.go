// Package enumerate exhaustively explores every scheduling and
// reads-from choice of a (small, loop-free) program under the engine's
// weak memory semantics — a bounded model checker built from the same
// machinery the randomized strategies use. It runs a real strategy whose
// draws come from a scripted source (an engine.Rand that answers each
// draw from a script) and backtracks over the answers in depth-first
// order. Outcomes and BehaviorCensus explore core.Random, whose draws
// are exactly the engine's scheduling and reads-from choices;
// BehaviorProbs explores any strategy that makes only finite draws, and
// Exact walks the draws of any function.
//
// The litmus suite uses it to verify outcome sets exactly: an outcome is
// allowed if and only if some decision sequence produces it.
//
// Every execution runs on a pooled engine.Runner (location tables,
// arenas, and coroutines are reused across leaves), and Outcomes can
// shard disjoint subtrees of the decision tree across a worker pool —
// see parallel.go. Parallel results are bit-identical to serial at any
// worker count.
//
// Enumeration assumes the program and the strategy are deterministic
// given the answers to the strategy's draws: replaying a prefix of
// recorded answers must reach draws with the same arity every time.
// When that assumption breaks (a nondeterministic program body, or
// options that change the decision tree between runs), the explorer
// reports a DriftError in the Result instead of silently clamping
// out-of-range choices.
package enumerate

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/telemetry"
)

// DriftError reports that replaying a recorded decision prefix reached a
// decision point whose shape differs from the recording — the program is
// nondeterministic (its body consults state outside the engine) or the
// engine options changed between runs. Exploration aborts when drift is
// detected: the decision tree has no stable shape to enumerate.
type DriftError struct {
	// Index is the 0-based decision index at which drift was detected.
	Index int
	// Want is the arity recorded for this decision point by the previous
	// run of the same prefix (0 when the decision point itself vanished:
	// the replay run ended before making Index decisions).
	Want int
	// Got is the arity observed on replay (0 when the decision point
	// vanished).
	Got int
	// Prefix is the script being replayed when drift was detected.
	Prefix []int
}

func (e *DriftError) Error() string {
	if e.Got == 0 && e.Want != 0 {
		return fmt.Sprintf("enumerate: script drift at decision %d: replay ended before reaching it (recorded arity %d, prefix %v)",
			e.Index, e.Want, e.Prefix)
	}
	return fmt.Sprintf("enumerate: script drift at decision %d: arity %d on replay, %d recorded (prefix %v)",
		e.Index, e.Got, e.Want, e.Prefix)
}

// source is the explorer's engine.Rand. It answers each Intn from the
// script, with 0 beyond its end, and records the draw's arity; want[i]
// is the arity the run that recorded script[i] saw, and any mismatch is
// drift (see DriftError). begin resets it for the next run.
type source struct {
	script, want []int
	arity        []int // arity[i]: the answers of this run's i-th draw
	drift        *DriftError
}

func (s *source) begin(script, want []int) {
	s.script, s.want, s.arity, s.drift = script, want, s.arity[:0], nil
}

// fail records the run's first drift.
func (s *source) fail(index, want, got int) {
	if s.drift == nil {
		s.drift = &DriftError{Index: index, Want: want, Got: got, Prefix: append([]int(nil), s.script...)}
	}
}

func (s *source) Intn(n int) int {
	pos := len(s.arity)
	if pos < len(s.want) && s.want[pos] != n {
		s.fail(pos, s.want[pos], n)
	}
	s.arity = append(s.arity, n)
	choice := 0
	if pos < len(s.script) {
		choice = s.script[pos]
	}
	if choice >= n {
		// Out-of-range script entry: only reachable under drift (the
		// scripted choice was in range when it was recorded). Clamp so the
		// run stays well-formed — its outcome is discarded by the caller.
		s.fail(pos, choice+1, n)
		choice = n - 1
	}
	return choice
}

// Float64 panics: a real value has no finite set of answers to walk, so
// POS, which draws real priorities, is sampled only.
func (s *source) Float64() float64 {
	panic("enumerate: the explored strategy drew a Float64, which has no finite answers to walk")
}

// Exhaustive tells core's distinct sampler to take its finite path.
func (*source) Exhaustive() {}

// end finishes a run and returns its drift, if any.
func (s *source) end() *DriftError {
	if n := len(s.arity); n < len(s.script) {
		// The run that recorded this script drew at position n; the
		// replay ended before reaching it.
		s.fail(n, s.want[n], 0)
	}
	return s.drift
}

// walker explores one Runner's leaves: a decorator whose Begin hands
// src to the explored strategy as info.Rand. One walker serves its
// Runner for a whole exploration, so the walk allocates nothing per
// leaf.
type walker struct {
	engine.Strategy
	r   *engine.Runner
	tel *telemetry.EngineCounters // counts ExploreRuns; may be nil
	src source
	out *engine.Outcome // the last run's outcome
}

// newWalker explores core.Random on r: Random's draws are exactly the
// engine's scheduling and reads-from choices.
func newWalker(r *engine.Runner, tel *telemetry.EngineCounters) *walker {
	return &walker{Strategy: core.NewRandom(), r: r, tel: tel}
}

func (w *walker) Begin(info engine.ProgramInfo, _ *rand.Rand) {
	info.Rand = &w.src
	w.Strategy.Begin(info, nil)
}

func (w *walker) run() (truncated bool) {
	w.out = w.r.Run(w, 0)
	if w.tel != nil {
		w.tel.ExploreRuns++
	}
	return w.out.Aborted
}

// dfs is dfs over the Runner's leaves under prefix, handing visit each
// leaf's outcome (engine-owned scratch) with its draw arities.
func (w *walker) dfs(prefix, want []int, limit int, stop func() bool, visit func(*engine.Outcome, []int)) subtreeResult {
	return dfs(&w.src, prefix, want, limit, stop, w.run, func(arity []int) { visit(w.out, arity) })
}

// Result summarizes an exhaustive exploration.
//
// Runs, Complete, and Truncated are pure functions of (program, options,
// limit): the parallel explorer reports bit-identical values at every
// worker count. Drift is the exception — its Index/Prefix depend on which
// replay first tripped the detector — but its presence or absence is
// deterministic for a given program.
type Result struct {
	// Runs is the number of executions explored.
	Runs int
	// Complete is false when the exploration hit the run limit before
	// exhausting the decision tree.
	Complete bool
	// Truncated counts executions that hit the engine step limit (only
	// possible for programs with unbounded loops).
	Truncated int
	// Drift is non-nil when replaying a decision prefix observed a
	// different tree shape than the run that recorded it — the program is
	// nondeterministic and its outcome space cannot be enumerated. The
	// exploration aborted where drift was detected, and the Result
	// carries nothing else (see Outcomes).
	Drift *DriftError
	// Interrupted marks an exploration stopped early by Config.Context
	// cancellation (SIGINT/SIGTERM drain): the counts returned by
	// Outcomes are a partial prefix of the leaf set and Complete is
	// false. Unlike the other fields, the cut point depends on when the
	// cancellation landed.
	Interrupted bool
}

// Config controls an Outcomes exploration.
type Config struct {
	// Limit caps the number of executions explored (0 = unlimited). When
	// the limit cuts the tree short, the executions counted are exactly
	// the first Limit leaves in depth-first order, regardless of Workers.
	Limit int
	// Workers is the number of exploration workers: 0 selects
	// GOMAXPROCS, 1 forces the serial path. Results are bit-identical at
	// every value.
	Workers int
	// Context, when non-nil, cancels the exploration cooperatively: it is
	// polled between executions, the pool drains, and Outcomes returns
	// the partial counts with Result.Interrupted set. The engine's
	// in-flight run is never aborted (a partial execution has no
	// classifiable outcome).
	Context context.Context
}

// ctxStop adapts a context into the dfs stop hook (nil for no context).
func ctxStop(ctx context.Context) func() bool {
	if ctx == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// resolveWorkers maps the Config.Workers convention (0 = GOMAXPROCS)
// onto a concrete worker count.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// subtreeResult summarizes a bounded DFS over one subtree of the
// decision tree. Exactly one of the terminal conditions holds: complete
// (every leaf under the prefix visited), capped (run limit hit), stopped
// (the stop hook ended it), or drift.
type subtreeResult struct {
	runs      int
	truncated int
	complete  bool
	capped    bool
	stopped   bool
	drift     *DriftError
}

// dfs walks, in lexicographic (depth-first) order, every answer
// sequence of src's draws that extends prefix; want carries the recorded
// arity of each draw along prefix for drift detection. run performs one
// leaf, drawing from src; visit then receives the leaf's draw arities
// (src-owned scratch), so weight(arity) is the probability that uniform
// draws reach the leaf. limit > 0 caps visited leaves; stop (may be nil)
// is polled between leaves for cooperative early termination. The loop
// allocates nothing per leaf: the script and arity buffers are reused.
func dfs(src *source, prefix, want []int, limit int, stop func() bool,
	run func() (truncated bool), visit func(arity []int)) subtreeResult {
	var res subtreeResult
	script := append(make([]int, 0, len(prefix)+16), prefix...)
	expect := append(make([]int, 0, len(want)+16), want...)
	for {
		if limit > 0 && res.runs >= limit {
			res.capped = true
			return res
		}
		if stop != nil && stop() {
			res.stopped = true
			return res
		}
		src.begin(script, expect)
		truncated := run()
		if res.drift = src.end(); res.drift != nil {
			return res
		}
		res.runs++
		if truncated {
			res.truncated++
		}
		visit(src.arity)

		// Backtrack: find the deepest draw at or below the subtree root
		// that still has an untaken answer, bump it, and drop everything
		// after. Answers beyond the script length were 0.
		i := len(src.arity) - 1
		for i >= len(prefix) {
			c := 0
			if i < len(script) {
				c = script[i]
			}
			if c+1 < src.arity[i] {
				break
			}
			i--
		}
		if i < len(prefix) {
			res.complete = true
			return res
		}
		for len(script) <= i {
			script = append(script, 0)
		}
		script = script[:i+1]
		script[i]++
		expect = append(expect[:0], src.arity[:i+1]...)
	}
}

// weight is prod(1/arity[i]), divided in draw order.
func weight(arity []int) float64 {
	pr := 1.0
	for _, a := range arity {
		pr /= float64(a)
	}
	return pr
}

// Exact runs f once for every answer sequence of its draws from the
// source it is handed, and returns each result's probability under
// uniform draws (a result sums the weights of its sequences). f must
// draw only Intn, be deterministic given the answers (or the walk stops
// with a DriftError) and make finitely many draws.
func Exact[K comparable](f func(engine.Rand) K) (map[K]float64, error) {
	var src source
	probs := make(map[K]float64)
	var k K
	sub := dfs(&src, nil, nil, 0, nil, func() bool { k = f(&src); return false },
		func(arity []int) { probs[k] += weight(arity) })
	if sub.drift != nil {
		return nil, sub.drift
	}
	return probs, nil
}

// tally returns a dfs visitor that counts each leaf under its key in m.
func tally[K comparable](m map[K]int, key func(*engine.Outcome) K) func(*engine.Outcome, []int) {
	return func(o *engine.Outcome, _ []int) { m[key(o)]++ }
}

// Outcomes explores the program and classifies each execution with the
// key function, returning how many executions produced each key. With
// cfg.Workers != 1 disjoint subtrees of the decision tree are explored
// in parallel (see parallel.go); the returned counts and Result are
// bit-identical to the serial exploration at any worker count. key must
// be safe for concurrent use when cfg.Workers != 1 (a pure function of
// the outcome, like litmus.Test.Outcome). With cfg.Workers == 1, key is
// called on the caller's goroutine once per leaf, in depth-first order.
//
// On drift the counts map is nil and Result carries only the Drift
// error: partial counts of a nondeterministic program are meaningless,
// and discarding them keeps serial and parallel output identical.
func Outcomes[K comparable](p *engine.Program, opts engine.Options, cfg Config, key func(*engine.Outcome) K) (map[K]int, Result) {
	if resolveWorkers(cfg.Workers) > 1 {
		return parallelOutcomes(p, opts, cfg, key)
	}
	r := engine.NewRunner(p, opts)
	defer r.Close()
	return serialOutcomes(newWalker(r, opts.Telemetry), cfg, key)
}

// serialOutcomes is the serial path of Outcomes on w.
func serialOutcomes[K comparable](w *walker, cfg Config, key func(*engine.Outcome) K) (map[K]int, Result) {
	counts := make(map[K]int)
	sub := w.dfs(nil, nil, cfg.Limit, ctxStop(cfg.Context), tally(counts, key))
	if sub.drift != nil {
		return nil, Result{Drift: sub.drift}
	}
	return counts, Result{Runs: sub.runs, Complete: sub.complete, Truncated: sub.truncated, Interrupted: sub.stopped}
}
