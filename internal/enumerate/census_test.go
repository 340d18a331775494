package enumerate

import (
	"encoding/json"
	"reflect"
	"testing"

	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/litmus"
	"pctwm/internal/memmodel"
)

// TestBehaviorCensusSB pins the census on the canonical example: SB+rlx
// has exactly 4 behaviors under rc11 (each read independently sees 0 or
// 1), and the total leaf count equals the enumeration's run count.
func TestBehaviorCensusSB(t *testing.T) {
	lt := litmus.SBRelaxed()
	c, err := BehaviorCensus(lt.Program, engine.Options{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Complete {
		t.Fatalf("SB census incomplete after %d runs", c.Runs)
	}
	if len(c.Behaviors) != 4 {
		t.Fatalf("SB+rlx census has %d behaviors, want 4: %+v", len(c.Behaviors), c.Behaviors)
	}
	leaves := c.Skipped
	for _, e := range c.Behaviors {
		if e.Leaves <= 0 {
			t.Fatalf("behavior %#x with %d leaves", e.FP, e.Leaves)
		}
		leaves += e.Leaves
	}
	if leaves != c.Runs {
		t.Fatalf("leaf counts sum to %d, runs %d", leaves, c.Runs)
	}
	if c.Program != lt.Program.Name() || c.Model != engine.ModelRC11 {
		t.Fatalf("census identity: %q/%q", c.Program, c.Model)
	}
}

// TestBehaviorCensusWorkerDeterminism: the census is bit-identical at
// any worker count, including the JSON encoding.
func TestBehaviorCensusWorkerDeterminism(t *testing.T) {
	lt := litmus.IRIWRelaxed()
	ref, err := BehaviorCensus(lt.Program, engine.Options{}, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.MarshalIndent(ref, "", "  ")
	for _, workers := range []int{2, 8, 0} {
		got, err := BehaviorCensus(lt.Program, engine.Options{}, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d census diverges:\n got %+v\nwant %+v", workers, got, ref)
		}
		gotJSON, _ := json.MarshalIndent(got, "", "  ")
		if string(gotJSON) != string(refJSON) {
			t.Fatalf("workers=%d census encoding diverges", workers)
		}
	}
}

// TestBehaviorCensusSkipsErrored: leaves that end in an engine error are
// counted as Skipped, not as behaviors — mirroring the harness rule that
// only clean runs carry a behavior.
func TestBehaviorCensusSkipsErrored(t *testing.T) {
	// A join cycle deadlocks every execution: the child joins itself, the
	// root joins the child. Every leaf errs, so the census has skipped
	// runs and zero behaviors.
	p := engine.NewProgram("skip-census")
	x := p.Loc("X", 0)
	p.AddThread(func(th *engine.Thread) {
		var h *engine.ThreadHandle
		h = th.Spawn(func(c *engine.Thread) {
			c.Load(x, memmodel.Relaxed)
			c.Join(h)
		})
		th.Join(h)
	})
	c, err := BehaviorCensus(p, engine.Options{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Complete {
		t.Fatalf("census incomplete after %d runs", c.Runs)
	}
	if c.Skipped == 0 || c.Skipped != c.Runs {
		t.Fatalf("deadlocking leaves not all counted as skipped: %+v", c)
	}
	if len(c.Behaviors) != 0 {
		t.Fatalf("deadlocked executions contributed behaviors: %+v", c.Behaviors)
	}
}

// TestBehaviorProbsSB: the exact uniform-walk distribution is a proper
// probability distribution whose support matches the census exactly.
func TestBehaviorProbsSB(t *testing.T) {
	lt := litmus.SBRelaxed()
	probs, errMass, err := BehaviorProbs(lt.Program, engine.Options{}, core.NewRandom())
	if err != nil {
		t.Fatal(err)
	}
	total := errMass
	for fp, p := range probs {
		if p <= 0 || p > 1 {
			t.Fatalf("behavior %#x has probability %v outside (0,1]", fp, p)
		}
		total += p
	}
	if total < 1-1e-9 || total > 1+1e-9 {
		t.Fatalf("probabilities sum to %v, want 1", total)
	}
	c, err := BehaviorCensus(lt.Program, engine.Options{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range c.Fingerprints() {
		if _, ok := probs[fp]; !ok {
			t.Fatalf("census behavior %#x missing from probs", fp)
		}
	}
	if len(probs) != len(c.Behaviors) {
		t.Fatalf("probs support %d behaviors, census %d", len(probs), len(c.Behaviors))
	}
}

// TestCensusRoundTrip: the census file format, a JSON array of
// censuses as `pctwm explore -census` writes it and `pctwm litmus
// -census` reads it, is lossless.
func TestCensusRoundTrip(t *testing.T) {
	lt := litmus.SBRelaxed()
	c, err := BehaviorCensus(lt.Program, engine.Options{Model: engine.ModelTSO}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent([]*Census{c}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back []*Census
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || !reflect.DeepEqual(back[0], c) {
		t.Fatalf("round trip diverges:\n got %+v\nwant %+v", back, c)
	}
	if back[0].Model != engine.ModelTSO {
		t.Fatalf("model lost: %q", back[0].Model)
	}
}
