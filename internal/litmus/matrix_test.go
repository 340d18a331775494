package litmus

import (
	"flag"
	"testing"

	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
)

// exploreWorkers shards the exhaustive explorations of this package's
// conformance tests across a worker pool (0 = GOMAXPROCS). Outcome sets
// are bit-identical at any value; CI passes -explore.workers explicitly.
var exploreWorkers = flag.Int("explore.workers", 0, "exhaustive-exploration workers (0 = GOMAXPROCS)")

// reachableOutcomes exhaustively enumerates every execution of the test
// under the given memory model and returns the set of final register
// outcomes. The litmus programs are tiny and loop-free, so the
// exploration must complete within the limit. Enumeration runs on the
// pooled parallel explorer.
func reachableOutcomes(t *testing.T, lt *Test, model string) map[string]bool {
	t.Helper()
	counts, res := enumerate.Outcomes(lt.Program, engine.Options{Model: model},
		enumerate.Config{Limit: 2_000_000, Workers: *exploreWorkers}, func(o *engine.Outcome) string {
			if o.Aborted || o.Deadlocked || o.Abnormal() {
				return "!abnormal"
			}
			return lt.Outcome(o.FinalValues)
		})
	if res.Drift != nil {
		t.Fatalf("%s/%s: %v", lt.Name, model, res.Drift)
	}
	if !res.Complete {
		t.Fatalf("%s/%s: exploration incomplete after %d runs", lt.Name, model, res.Runs)
	}
	if counts["!abnormal"] > 0 {
		t.Fatalf("%s/%s: %d abnormal executions", lt.Name, model, counts["!abnormal"])
	}
	set := make(map[string]bool, len(counts))
	for k := range counts {
		set[k] = true
	}
	return set
}

// TestCrossModelMatrix is the differential conformance check of the
// memory-model backends: the classic four-shape matrix (SB, MP, LB,
// IRIW, all relaxed) must reproduce the textbook allowed/forbidden
// tables on every model, distinguishing SC from TSO from RC11 by
// exactly the witness outcomes that separate them.
func TestCrossModelMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration is slow")
	}
	cases := []struct {
		test    func() *Test
		witness string
		// reachable under the model?
		sc, tso, rc11 bool
	}{
		// Store buffering: the weak outcome needs store buffers.
		{SBRelaxed, "a=0 b=0", false, true, true},
		// Message passing: TSO's FIFO buffers preserve causality.
		{MPRelaxed, "a=1 b=0", false, false, true},
		// Load buffering: forbidden everywhere (no load speculation; the
		// engine's mo is issue order, so po ∪ rf stays acyclic).
		{LoadBuffering, "a=1 b=1", false, false, false},
		// IRIW: disagreeing readers need non-multi-copy atomicity.
		{IRIWRelaxed, "r1=1 r2=0 r3=1 r4=0", false, false, true},
	}
	for _, c := range cases {
		lt := c.test()
		t.Run(lt.Name, func(t *testing.T) {
			perModel := map[string]map[string]bool{}
			for model, want := range map[string]bool{
				engine.ModelSC:   c.sc,
				engine.ModelTSO:  c.tso,
				engine.ModelRC11: c.rc11,
			} {
				got := reachableOutcomes(t, c.test(), model)
				perModel[model] = got
				if got[c.witness] != want {
					t.Errorf("%s under %s: witness %q reachable=%v, textbook says %v",
						lt.Name, model, c.witness, got[c.witness], want)
				}
				// Every reachable outcome must be legal under the model's
				// expectation table, and every weak outcome reachable.
				exp := lt.Expect(model)
				for out := range got {
					if exp.Illegal(out) {
						t.Errorf("%s under %s: reachable outcome %q is illegal", lt.Name, model, out)
					}
				}
				for _, w := range exp.Weak {
					if !got[w] {
						t.Errorf("%s under %s: weak outcome %q unreachable", lt.Name, model, w)
					}
				}
			}
			// Model strength: SC ⊆ TSO ⊆ RC11 on these relaxed programs.
			for out := range perModel[engine.ModelSC] {
				if !perModel[engine.ModelTSO][out] {
					t.Errorf("%s: SC outcome %q not reachable under TSO", lt.Name, out)
				}
			}
			for out := range perModel[engine.ModelTSO] {
				if !perModel[engine.ModelRC11][out] {
					t.Errorf("%s: TSO outcome %q not reachable under RC11", lt.Name, out)
				}
			}
		})
	}
}
