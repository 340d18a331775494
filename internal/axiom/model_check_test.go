package axiom_test

import (
	"testing"

	"pctwm/internal/axiom"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/litmus"
)

// TestCheckModelAcceptsOwnExecutions: every backend generates only
// executions consistent with its own axioms — the litmus suite explored
// under each model must recheck clean under that model's checker.
func TestCheckModelAcceptsOwnExecutions(t *testing.T) {
	for _, model := range engine.Models() {
		model := model
		t.Run(model, func(t *testing.T) {
			for _, lt := range litmus.Suite() {
				opts := engine.Options{Model: model, Record: true}
				r := engine.NewRunner(lt.Program, opts)
				strat := core.NewRandom()
				for seed := int64(0); seed < 30; seed++ {
					o := r.Run(strat, seed)
					g, err := axiom.FromRecording(o.Recording)
					if err != nil {
						r.Close()
						t.Fatalf("%s seed %d: %v", lt.Name, seed, err)
					}
					if vs := g.CheckModel(model); len(vs) > 0 {
						r.Close()
						t.Fatalf("%s seed %d under %s: %v", lt.Name, seed, model, vs)
					}
				}
				r.Close()
			}
		})
	}
}

// weakRecording exhaustively explores the test under rc11 and returns
// the recording of the first execution, in depth-first order, producing
// the given outcome.
func weakRecording(t *testing.T, lt *litmus.Test, outcome string) *engine.Recording {
	t.Helper()
	var rec *engine.Recording
	_, res := enumerate.Outcomes(lt.Program, engine.Options{Record: true}, enumerate.Config{Limit: 500_000, Workers: 1}, func(o *engine.Outcome) string {
		out := lt.Outcome(o.FinalValues)
		if rec == nil && out == outcome {
			rec = o.Recording
		}
		return out
	})
	if res.Drift != nil {
		t.Fatalf("%s: %v", lt.Name, res.Drift)
	}
	if rec == nil {
		t.Fatalf("%s: outcome %q not reachable under rc11", lt.Name, outcome)
	}
	return rec
}

// TestCheckSCRejectsWeakBehaviour: an rc11 execution exhibiting store
// buffering is, by construction, not sequentially consistent — CheckSC
// must flag it while the rc11 checker accepts it.
func TestCheckSCRejectsWeakBehaviour(t *testing.T) {
	rec := weakRecording(t, litmus.SBRelaxed(), "a=0 b=0")
	g, err := axiom.FromRecording(rec)
	if err != nil {
		t.Fatal(err)
	}
	if vs := g.Check(); len(vs) > 0 {
		t.Fatalf("rc11 checker rejected its own execution: %v", vs)
	}
	if vs := g.CheckSC(); len(vs) == 0 {
		t.Fatal("CheckSC accepted a store-buffering execution")
	}
}

// TestCheckTSOAcceptsStoreBuffering: the same SB execution IS x86-TSO
// consistent (that is the model's namesake reordering), so CheckTSO
// accepts what CheckSC rejects.
func TestCheckTSOAcceptsStoreBuffering(t *testing.T) {
	rec := weakRecording(t, litmus.SBRelaxed(), "a=0 b=0")
	g, err := axiom.FromRecording(rec)
	if err != nil {
		t.Fatal(err)
	}
	if vs := g.CheckTSO(); len(vs) > 0 {
		t.Fatalf("CheckTSO rejected a store-buffering execution: %v", vs)
	}
}

// TestCheckTSORejectsStaleMessagePassing: an rc11 execution where the
// reader sees the flag but not the payload violates TSO's FIFO buffers.
func TestCheckTSORejectsStaleMessagePassing(t *testing.T) {
	rec := weakRecording(t, litmus.MPRelaxed(), "a=1 b=0")
	g, err := axiom.FromRecording(rec)
	if err != nil {
		t.Fatal(err)
	}
	if vs := g.CheckTSO(); len(vs) == 0 {
		t.Fatal("CheckTSO accepted a stale message-passing read")
	}
	if vs := g.CheckSC(); len(vs) == 0 {
		t.Fatal("CheckSC accepted a stale message-passing read")
	}
}

// TestCheckModelUnknown: an unknown model name yields a violation, not
// a silent pass.
func TestCheckModelUnknown(t *testing.T) {
	lt := litmus.SBRelaxed()
	o := engine.Run(lt.Program, core.NewRandom(), 1, engine.Options{Record: true})
	g, err := axiom.FromRecording(o.Recording)
	if err != nil {
		t.Fatal(err)
	}
	if vs := g.CheckModel("ppc"); len(vs) != 1 {
		t.Fatalf("unknown model: got %v", vs)
	}
}
