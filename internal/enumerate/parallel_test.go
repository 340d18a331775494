package enumerate

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"pctwm/internal/benchprog"
	"pctwm/internal/engine"
	"pctwm/internal/litmus"
	"pctwm/internal/memmodel"
	"pctwm/internal/telemetry"
)

// differentialCase is one (program, options, key) triple whose parallel
// exploration must match serial bit for bit.
type differentialCase struct {
	name string
	prog *engine.Program
	opts engine.Options
	key  func(*engine.Outcome) string
	// limits to sweep: 0 (unlimited) is only safe for loop-free litmus
	// programs — the truncated decision trees of the spin-loop benchmarks
	// are effectively unbounded.
	limits []int
}

// differentialCases builds the sweep: litmus tests plus benchmark
// programs (with a tight step limit so their spin loops truncate fast),
// across every memory-model backend.
func differentialCases(t *testing.T, full bool) []differentialCase {
	t.Helper()
	litmusNames := []string{"SB+rlx", "MP+rlx", "CoRR2"}
	benchNames := []string{"dekker", "seqlock"}
	if full {
		litmusNames = append(litmusNames, "LB+rlx", "IRIW+rlx")
	}
	var cases []differentialCase
	for _, model := range engine.Models() {
		for _, name := range litmusNames {
			lt := litmusByName(t, name)
			cases = append(cases, differentialCase{
				name:   name + "/" + model,
				prog:   lt.Program,
				opts:   engine.Options{Model: model},
				key:    func(o *engine.Outcome) string { return lt.Outcome(o.FinalValues) },
				limits: []int{0, 1, 700},
			})
		}
		for _, name := range benchNames {
			b := benchByName(t, name)
			opts := b.Options()
			opts.Model = model
			// Race detection is rc11-only; the engine forces it off
			// elsewhere, but keep the options honest.
			if model != engine.ModelRC11 {
				opts.DetectRaces = false
			}
			// A tight step limit keeps the spin-loop executions cheap; the
			// truncation pattern itself must still match serial exactly.
			opts.MaxSteps = 250
			cases = append(cases, differentialCase{
				name:   name + "/" + model,
				prog:   b.Program(0),
				opts:   opts,
				limits: []int{1, 700},
				key: func(o *engine.Outcome) string {
					switch {
					case o.BugHit:
						return "bug"
					case o.Aborted:
						return "aborted"
					case o.Deadlocked:
						return "deadlock"
					default:
						return "clean"
					}
				},
			})
		}
	}
	return cases
}

func litmusByName(t *testing.T, name string) *litmus.Test {
	t.Helper()
	for _, lt := range litmus.Suite() {
		if lt.Name == name {
			return lt
		}
	}
	t.Fatalf("unknown litmus test %q", name)
	return nil
}

func benchByName(t *testing.T, name string) *benchprog.Benchmark {
	t.Helper()
	for _, b := range benchprog.All() {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("unknown benchmark %q", name)
	return nil
}

// TestParallelMatchesSerial is the determinism contract of the parallel
// explorer: over litmus and benchmark programs, every memory model, and
// worker counts 1, 2, and 8, the outcome counts and the Result fields
// must be bit-identical to the serial exploration — both for complete
// explorations and for runs truncated by a limit (where "the first N
// executions" must mean the same N leaves at any worker count).
func TestParallelMatchesSerial(t *testing.T) {
	for _, tc := range differentialCases(t, !testing.Short()) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, limit := range tc.limits {
				serialCounts, serialRes := Outcomes(tc.prog, tc.opts, Config{Limit: limit, Workers: 1}, tc.key)
				if serialRes.Drift != nil {
					t.Fatalf("limit %d: serial drift: %v", limit, serialRes.Drift)
				}
				for _, workers := range []int{2, 8} {
					gotCounts, gotRes := Outcomes(tc.prog, tc.opts, Config{Limit: limit, Workers: workers}, tc.key)
					if gotRes.Drift != nil {
						t.Fatalf("limit %d workers %d: drift: %v", limit, workers, gotRes.Drift)
					}
					if !reflect.DeepEqual(gotCounts, serialCounts) {
						t.Errorf("limit %d workers %d: counts diverge\n got  %v\n want %v",
							limit, workers, gotCounts, serialCounts)
					}
					if gotRes != serialRes {
						t.Errorf("limit %d workers %d: Result diverges\n got  %+v\n want %+v",
							limit, workers, gotRes, serialRes)
					}
				}
			}
		})
	}
}

// TestParallelTelemetry: the explorer's work counters flow into the
// caller's EngineCounters after a parallel exploration, and the engine
// trial counts cover every execution the explorer performed.
func TestParallelTelemetry(t *testing.T) {
	lt := litmusByName(t, "IRIW+rlx")
	var tel telemetry.EngineCounters
	opts := engine.Options{Telemetry: &tel}
	counts, res := Outcomes(lt.Program, opts, Config{Workers: 4}, func(o *engine.Outcome) string {
		return lt.Outcome(o.FinalValues)
	})
	if res.Drift != nil {
		t.Fatal(res.Drift)
	}
	if !res.Complete || len(counts) == 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
	if tel.ExploreRuns < uint64(res.Runs) {
		t.Errorf("ExploreRuns %d < merged Runs %d", tel.ExploreRuns, res.Runs)
	}
	if tel.Trials != tel.ExploreRuns {
		t.Errorf("engine Trials %d != ExploreRuns %d (every explorer execution runs on an instrumented Runner)",
			tel.Trials, tel.ExploreRuns)
	}
}

// driftProgram builds a program whose decision tree changes shape from
// run to run: a closure-captured counter adds one more store per
// execution, so replaying a recorded prefix meets different arities.
// The counter is atomic because parallel workers run the program at the
// same time.
func driftProgram() *engine.Program {
	p := engine.NewProgram("drift")
	x := p.Loc("X", 0)
	var runs atomic.Int64
	p.AddThread(func(th *engine.Thread) {
		n := runs.Add(1)
		for i := int64(0); i < n; i++ {
			th.Store(x, memmodel.Value(i), memmodel.Relaxed)
		}
	})
	p.AddThread(func(th *engine.Thread) {
		th.Load(x, memmodel.Relaxed)
	})
	return p
}

// TestDriftDetectedSerial: the silent-clamp behaviour is gone — a
// nondeterministic program surfaces a structured DriftError carrying
// the offending decision index instead of silently folding executions
// together.
func TestDriftDetectedSerial(t *testing.T) {
	counts, res := Outcomes(driftProgram(), engine.Options{}, Config{Workers: 1}, func(o *engine.Outcome) string {
		return "x"
	})
	if res.Drift == nil {
		t.Fatalf("nondeterministic program explored without drift: %+v", res)
	}
	if counts != nil {
		t.Errorf("counts not discarded on drift: %v", counts)
	}
	if res.Runs != 0 || res.Complete {
		t.Errorf("drift Result not normalized: %+v", res)
	}
	if res.Drift.Index < 0 || res.Drift.Error() == "" {
		t.Errorf("malformed DriftError: %+v", res.Drift)
	}
}

// TestDriftDetectedParallel: the parallel explorer reports drift too
// (from whichever shard tripped it) rather than merging garbage.
func TestDriftDetectedParallel(t *testing.T) {
	counts, res := Outcomes(driftProgram(), engine.Options{}, Config{Workers: 4}, func(o *engine.Outcome) string {
		return "x"
	})
	if res.Drift == nil {
		t.Fatalf("nondeterministic program explored without drift: %+v", res)
	}
	if counts != nil {
		t.Errorf("counts not discarded on drift: %v", counts)
	}
}

// TestDriftReportedByExplore: the serial visitor API surfaces drift in
// its Result as well (visit has observed the pre-drift leaves).
func TestDriftReportedByExplore(t *testing.T) {
	res := Explore(driftProgram(), engine.Options{}, 0, func(*engine.Outcome) {})
	if res.Drift == nil {
		t.Fatalf("Explore missed drift: %+v", res)
	}
}

// TestExploreUntilStops: the early-stop visitor halts the walk after
// the current leaf.
func TestExploreUntilStops(t *testing.T) {
	lt := litmusByName(t, "SB+rlx")
	seen := 0
	res := ExploreUntil(lt.Program, engine.Options{}, 0, func(o *engine.Outcome) bool {
		seen++
		return seen < 3
	})
	if seen != 3 || res.Runs != 3 || res.Complete {
		t.Fatalf("early stop broken: seen=%d res=%+v", seen, res)
	}
}

// countCtx is a context whose Err() flips to context.Canceled after a
// fixed number of polls — a deterministic stand-in for a signal arriving
// mid-exploration.
type countCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *countCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestContextCancelsExploration: a canceled Config.Context stops both the
// serial and the parallel explorer between executions, marking the result
// Interrupted and incomplete while keeping the partial counts it did
// merge. An already-canceled context yields zero runs.
func TestContextCancelsExploration(t *testing.T) {
	lt := litmusByName(t, "IRIW+rlx")
	key := func(o *engine.Outcome) string { return lt.Outcome(o.FinalValues) }

	_, full := Outcomes(lt.Program, engine.Options{}, Config{Workers: 1}, key)
	if full.Drift != nil || !full.Complete {
		t.Fatalf("baseline exploration broken: %+v", full)
	}

	for _, workers := range []int{1, 4} {
		cctx := &countCtx{Context: context.Background(), after: 40}
		counts, res := Outcomes(lt.Program, engine.Options{}, Config{Workers: workers, Context: cctx}, key)
		if res.Drift != nil {
			t.Fatalf("workers %d: drift: %v", workers, res.Drift)
		}
		if !res.Interrupted || res.Complete {
			t.Fatalf("workers %d: cancellation not reported: %+v", workers, res)
		}
		if res.Runs >= full.Runs {
			t.Errorf("workers %d: interrupted run explored the full space (%d runs)", workers, res.Runs)
		}
		merged := 0
		for _, n := range counts {
			merged += n
		}
		if merged != res.Runs {
			t.Errorf("workers %d: partial counts (%d) disagree with Runs (%d)", workers, merged, res.Runs)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		counts, res = Outcomes(lt.Program, engine.Options{}, Config{Workers: workers, Context: ctx}, key)
		if !res.Interrupted || res.Runs != 0 || len(counts) != 0 {
			t.Errorf("workers %d: pre-canceled context still explored: %+v %v", workers, res, counts)
		}
	}
}

// TestNilContextUnchanged: leaving Config.Context nil keeps the explorer
// on its zero-overhead path with identical results.
func TestNilContextUnchanged(t *testing.T) {
	lt := litmusByName(t, "SB+rlx")
	key := func(o *engine.Outcome) string { return lt.Outcome(o.FinalValues) }
	wantCounts, wantRes := Outcomes(lt.Program, engine.Options{}, Config{Workers: 2}, key)
	gotCounts, gotRes := Outcomes(lt.Program, engine.Options{}, Config{Workers: 2, Context: context.Background()}, key)
	if !reflect.DeepEqual(gotCounts, wantCounts) || gotRes != wantRes {
		t.Errorf("background context changed results: %+v vs %+v", gotRes, wantRes)
	}
}

// TestParallelLimitExactPrefix: with a limit smaller than the state
// space, the counted executions are exactly the serial explorer's first
// N leaves — checked here against an independently computed serial
// prefix rather than the Outcomes serial path, so both sides of the
// differential can't share a bug.
func TestParallelLimitExactPrefix(t *testing.T) {
	lt := litmusByName(t, "IRIW+rlx")
	const limit = 137
	want := make(map[string]int)
	n := 0
	Explore(lt.Program, engine.Options{}, limit, func(o *engine.Outcome) {
		want[lt.Outcome(o.FinalValues)]++
		n++
	})
	if n != limit {
		t.Fatalf("serial prefix short: %d", n)
	}
	for _, workers := range []int{2, 8} {
		got, res := Outcomes(lt.Program, engine.Options{}, Config{Limit: limit, Workers: workers}, func(o *engine.Outcome) string {
			return lt.Outcome(o.FinalValues)
		})
		if res.Drift != nil {
			t.Fatal(res.Drift)
		}
		if res.Runs != limit || res.Complete {
			t.Fatalf("workers %d: res %+v", workers, res)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers %d: prefix counts diverge\n got  %v\n want %v", workers, got, want)
		}
	}
}
