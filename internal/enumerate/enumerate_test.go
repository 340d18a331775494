package enumerate

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"testing"

	"pctwm/internal/axiom"
	"pctwm/internal/engine"
	"pctwm/internal/litmus"
	"pctwm/internal/memmodel"
)

// exploreWorkers sets the worker count for this package's exhaustive
// explorations (0 = GOMAXPROCS). Results are bit-identical at any value
// (TestParallelMatchesSerial pins that).
var exploreWorkers = flag.Int("explore.workers", 0, "exhaustive-exploration workers (0 = GOMAXPROCS)")

// TestExploreCountsTinyProgram: a single thread with one two-candidate
// read has exactly two executions.
func TestExploreCountsTinyProgram(t *testing.T) {
	p := engine.NewProgram("tiny")
	x := p.Loc("X", 0)
	r := p.Loc("r", -1)
	p.AddThread(func(th *engine.Thread) {
		th.Store(x, 1, memmodel.Relaxed)
	})
	p.AddThread(func(th *engine.Thread) {
		th.Store(r, th.Load(x, memmodel.Relaxed), memmodel.NonAtomic)
	})
	seen, res := Outcomes(p, engine.Options{}, Config{Workers: 1}, func(o *engine.Outcome) memmodel.Value {
		return o.FinalValues["r"]
	})
	if !res.Complete {
		t.Fatal("exploration incomplete")
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("missing outcomes: %v (runs %d)", seen, res.Runs)
	}
}

// exhaustive litmus verification: the set of reachable outcomes must
// exactly equal the declared Allowed set (for tests that declare one),
// and must exclude every Forbidden outcome.
func TestLitmusOutcomeSetsExact(t *testing.T) {
	for _, lt := range litmus.Suite() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			counts, res := Outcomes(lt.Program, engine.Options{}, Config{Limit: 2_000_000, Workers: *exploreWorkers}, func(o *engine.Outcome) string {
				return lt.Outcome(o.FinalValues)
			})
			if res.Drift != nil {
				t.Fatal(res.Drift)
			}
			if !res.Complete {
				t.Skipf("state space too large (%d runs)", res.Runs)
			}
			if res.Truncated > 0 {
				t.Fatalf("%d truncated executions", res.Truncated)
			}
			got := make([]string, 0, len(counts))
			for k := range counts {
				got = append(got, k)
			}
			sort.Strings(got)

			if len(lt.Allowed) > 0 {
				want := append([]string(nil), lt.Allowed...)
				sort.Strings(want)
				if strings.Join(got, ";") != strings.Join(want, ";") {
					t.Fatalf("reachable outcomes = %v\nwant exactly   = %v", got, want)
				}
			}
			for _, f := range lt.Forbidden {
				if counts[f] > 0 {
					t.Fatalf("forbidden outcome %q reachable (%d times)", f, counts[f])
				}
			}
			for _, wk := range lt.Weak {
				if counts[wk] == 0 {
					t.Fatalf("weak outcome %q unreachable", wk)
				}
			}
			t.Logf("%s: %d executions, %d distinct outcomes", lt.Name, res.Runs, len(counts))
		})
	}
}

// TestExhaustiveConsistency: every execution of every litmus test, under
// every decision sequence, satisfies the C11 consistency axioms — the
// strongest form of the soundness invariant.
func TestExhaustiveConsistency(t *testing.T) {
	for _, lt := range litmus.Suite() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			checked := 0
			_, res := Outcomes(lt.Program, engine.Options{Record: true}, Config{Limit: 30000, Workers: 1}, func(o *engine.Outcome) bool {
				g, err := axiom.FromRecording(o.Recording)
				if err != nil {
					t.Fatal(err)
				}
				if vs := g.Check(); len(vs) > 0 {
					t.Fatalf("inconsistent execution: %v", vs)
				}
				checked++
				return true
			})
			t.Logf("%s: %d executions checked (complete=%v)", lt.Name, checked, res.Complete)
		})
	}
}

// TestOutcomesHelper covers the classification helper.
func TestOutcomesHelper(t *testing.T) {
	p := engine.NewProgram("h")
	x := p.Loc("X", 0)
	p.AddThread(func(th *engine.Thread) { th.Store(x, 1, memmodel.Relaxed) })
	counts, res := Outcomes(p, engine.Options{}, Config{}, func(o *engine.Outcome) string {
		return fmt.Sprintf("X=%d", o.FinalValues["X"])
	})
	if !res.Complete || counts["X=1"] != res.Runs {
		t.Fatalf("counts %v res %+v", counts, res)
	}
}

// TestLimitStopsExploration: the run limit is honored.
func TestLimitStopsExploration(t *testing.T) {
	lt := litmus.IRIWRelaxed()
	_, res := Outcomes(lt.Program, engine.Options{}, Config{Limit: 10, Workers: 1}, func(*engine.Outcome) bool { return true })
	if res.Complete || res.Runs != 10 {
		t.Fatalf("limit ignored: %+v", res)
	}
}
