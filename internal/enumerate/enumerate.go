// Package enumerate exhaustively explores every scheduling and
// reads-from choice of a (small, loop-free) program under the engine's
// weak memory semantics — a bounded model checker built from the same
// machinery the randomized strategies use. It drives the engine with a
// scripted strategy and backtracks over the decision tree in
// depth-first order.
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
// Enumeration assumes the program is deterministic given its decision
// sequence: replaying a prefix of recorded choices must reach decision
// points with the same arity every time. When that assumption breaks
// (a nondeterministic program body, or options that change the decision
// tree between runs), the explorer reports a DriftError in the Result
// instead of silently clamping out-of-range choices.
package enumerate

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
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

// scripted is an engine.Strategy that follows a fixed prefix of decision
// indices and takes the first alternative beyond it, recording the number
// of alternatives at every decision point. want carries the arity the
// previous run recorded for each scripted position; any mismatch is
// drift (see DriftError).
//
// The value is reused across runs: Begin resets the per-run state, so
// one scripted per Runner suffices for a whole exploration.
type scripted struct {
	script []int
	// want[i] is the expected arity at decision point i (len(want) ==
	// len(script) always; the positions beyond the script are discovered
	// fresh and have no expectation).
	want []int
	pos  int
	// arity[i] is the number of alternatives at decision point i of the
	// current run.
	arity []int
	drift *DriftError
}

func (s *scripted) Name() string { return "enumerate" }

func (s *scripted) Begin(engine.ProgramInfo, *rand.Rand) {
	s.pos = 0
	s.arity = s.arity[:0]
	s.drift = nil
}

func (s *scripted) OnEvent(*memmodel.Event)              {}
func (s *scripted) OnThreadStart(_, _ memmodel.ThreadID) {}
func (s *scripted) OnSpin(memmodel.ThreadID)             {}

func (s *scripted) decide(n int) int {
	if s.pos < len(s.want) && s.want[s.pos] != n && s.drift == nil {
		s.drift = &DriftError{
			Index:  s.pos,
			Want:   s.want[s.pos],
			Got:    n,
			Prefix: append([]int(nil), s.script...),
		}
	}
	s.arity = append(s.arity, n)
	choice := 0
	if s.pos < len(s.script) {
		choice = s.script[s.pos]
	}
	s.pos++
	if choice >= n {
		// Out-of-range script entry: only reachable under drift (the
		// scripted choice was in range when it was recorded). Clamp so the
		// run stays well-formed — its outcome is discarded by the caller.
		if s.drift == nil {
			s.drift = &DriftError{
				Index:  s.pos - 1,
				Want:   choice + 1,
				Got:    n,
				Prefix: append([]int(nil), s.script...),
			}
		}
		choice = n - 1
	}
	return choice
}

func (s *scripted) NextThread(enabled []engine.PendingOp) memmodel.ThreadID {
	return enabled[s.decide(len(enabled))].TID
}

func (s *scripted) PickRead(rc engine.ReadContext) int {
	return s.decide(len(rc.Candidates))
}

// run replays script on r, with want[i] the arity recorded for
// script[i], and counts the execution into tel (may be nil). On return
// s.arity holds the run's decision arities and s.drift is non-nil when
// the replay diverged from the recording — including a replay that
// ended before reaching a scripted decision.
func (s *scripted) run(r *engine.Runner, script, want []int, tel *telemetry.EngineCounters) *engine.Outcome {
	s.script, s.want = script, want
	o := r.Run(s, 0)
	if tel != nil {
		tel.ExploreRuns++
	}
	if s.drift == nil && len(s.arity) < len(script) {
		// The run that recorded this script made a decision at position
		// len(s.arity); the replay ended before reaching it.
		s.drift = &DriftError{
			Index:  len(s.arity),
			Want:   want[len(s.arity)],
			Prefix: append([]int(nil), script...),
		}
	}
	return o
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

// dfs explores, in lexicographic (depth-first) order, every execution
// whose decision sequence extends prefix, reusing r across runs. want
// carries the recorded arity of each decision along prefix for drift
// detection. limit > 0 caps visited leaves; stop (may be nil) is polled
// between executions for cooperative early termination. visit receives
// each leaf's outcome and decision arities (engine-owned scratch, valid
// only during the call): arity[i] is the number of alternatives at the
// leaf's i-th decision point, so prod(1/arity[i]) is the exact
// probability a uniform-decision random walk reaches this leaf (see
// BehaviorProbs).
// tel (may be nil) counts engine executions into ExploreRuns.
//
// The steady-state loop performs no allocations of its own: the script
// and arity buffers are reused across leaves, so per-leaf cost is the
// pooled Runner execution plus the backtracking scan.
func dfs(r *engine.Runner, prefix, want []int, limit int, tel *telemetry.EngineCounters,
	stop func() bool, visit func(*engine.Outcome, []int)) subtreeResult {
	var res subtreeResult
	s := &scripted{}
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
		o := s.run(r, script, expect, tel)
		if s.drift != nil {
			res.drift = s.drift
			return res
		}
		res.runs++
		if o.Aborted {
			res.truncated++
		}
		visit(o, s.arity)

		// Backtrack: find the deepest decision point at or below the
		// subtree root that still has an untaken alternative, bump it, and
		// drop everything after. Choices beyond the script length were 0.
		i := len(s.arity) - 1
		for i >= len(prefix) {
			c := 0
			if i < len(script) {
				c = script[i]
			}
			if c+1 < s.arity[i] {
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
		expect = append(expect[:0], s.arity[:i+1]...)
	}
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
	return serialOutcomes(r, opts.Telemetry, cfg, key)
}

// serialOutcomes is the serial path of Outcomes on r, counting
// executions into tel (may be nil).
func serialOutcomes[K comparable](r *engine.Runner, tel *telemetry.EngineCounters, cfg Config, key func(*engine.Outcome) K) (map[K]int, Result) {
	counts := make(map[K]int)
	sub := dfs(r, nil, nil, cfg.Limit, tel, ctxStop(cfg.Context), tally(counts, key))
	if sub.drift != nil {
		return nil, Result{Drift: sub.drift}
	}
	return counts, Result{Runs: sub.runs, Complete: sub.complete, Truncated: sub.truncated, Interrupted: sub.stopped}
}
