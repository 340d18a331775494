package axiom_test

import (
	"slices"
	"testing"

	"pctwm/internal/axiom"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/litmus"
	"pctwm/internal/memmodel"
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

// TestCheckTSOAcceptsDrainReorderedRead: under tso a write's Stamp is
// its issue order, while coherence is the order the store buffers drain
// in. In {x=1; load z | x=2; load z | load x; load x} the write issued
// first can drain last, so the reader's second read takes a source
// stamped before its first read's. CheckTSO replays the drains and
// accepts the execution; rc11's checker takes the stamps as mo and
// reports read-coherence. The first such leaf in depth-first order is
// checked.
func TestCheckTSOAcceptsDrainReorderedRead(t *testing.T) {
	p := engine.NewProgram("drain-reorder")
	x, z := p.Loc("x", 0), p.Loc("z", 0)
	for v := memmodel.Value(1); v <= 2; v++ {
		p.AddThread(func(th *engine.Thread) {
			th.Store(x, v, memmodel.Relaxed)
			th.Load(z, memmodel.Relaxed)
		})
	}
	p.AddThread(func(th *engine.Thread) {
		th.Load(x, memmodel.Relaxed)
		th.Load(x, memmodel.Relaxed)
	})
	const reader memmodel.ThreadID = 3 // root threads count from 1
	var tso, rc11 []axiom.Violation
	found := false
	_, res := enumerate.Outcomes(p, engine.Options{Model: engine.ModelTSO, Record: true}, enumerate.Config{Workers: 1}, func(o *engine.Outcome) bool {
		evs := o.Recording.Events
		var src []memmodel.TS // the stamps of the reader's sources, in po
		for _, ev := range evs {
			if ev.TID == reader && ev.Label.Kind == memmodel.KindRead {
				src = append(src, evs[ev.ReadsFrom].Stamp)
			}
		}
		if found || src[1] >= src[0] {
			return false
		}
		found = true
		g, err := axiom.FromRecording(o.Recording)
		if err != nil {
			t.Fatal(err)
		}
		tso, rc11 = g.CheckModel(engine.ModelTSO), g.Check()
		return true
	})
	if !found || !res.Complete {
		t.Fatalf("no leaf reads against stamp order (complete=%v)", res.Complete)
	}
	if len(tso) > 0 {
		t.Fatalf("CheckTSO rejected a drain-reordered read: %v", tso)
	}
	if !slices.ContainsFunc(rc11, func(v axiom.Violation) bool { return v.Axiom == "read-coherence" }) {
		t.Fatalf("rc11's checker did not report read-coherence: %v", rc11)
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
