package pctwm_test

import (
	"slices"
	"testing"

	"pctwm"
	"pctwm/internal/engine"
	"pctwm/internal/litmus"
	"pctwm/internal/memmodel"
)

// buildSB is the paper's Program SB against the public API.
func buildSB() (*pctwm.Program, func(*pctwm.Outcome) bool) {
	p := pctwm.NewProgram("sb")
	x := p.Loc("X", 0)
	y := p.Loc("Y", 0)
	ra := p.Loc("a", -1)
	rb := p.Loc("b", -1)
	p.AddThread(func(t *pctwm.Thread) {
		t.Store(x, 1, pctwm.Relaxed)
		t.Store(ra, t.Load(y, pctwm.Relaxed), pctwm.NonAtomic)
	})
	p.AddThread(func(t *pctwm.Thread) {
		t.Store(y, 1, pctwm.Relaxed)
		t.Store(rb, t.Load(x, pctwm.Relaxed), pctwm.NonAtomic)
	})
	weak := func(o *pctwm.Outcome) bool {
		return o.FinalValues["a"] == 0 && o.FinalValues["b"] == 0
	}
	return p, weak
}

// TestPublicAPIQuickstart drives the README flow end to end: build SB,
// estimate parameters, and show PCTWM d=0 hitting the weak outcome on
// every round while random testing only sometimes does.
func TestPublicAPIQuickstart(t *testing.T) {
	p, weak := buildSB()
	est := pctwm.Estimate(p, pctwm.Options{})
	if est.K < 4 || est.KCom < 2 {
		t.Fatalf("estimate %+v", est)
	}

	pctwmRes := pctwm.RunTrials(p, weak, func() pctwm.Strategy {
		return pctwm.NewPCTWM(0, 1, est.KCom)
	}, 200, 2, pctwm.Options{})
	if pctwmRes.Hits != pctwmRes.Runs {
		t.Fatalf("PCTWM d=0 must always produce a=b=0, got %d/%d", pctwmRes.Hits, pctwmRes.Runs)
	}

	randRes := pctwm.RunTrials(p, weak, func() pctwm.Strategy {
		return pctwm.NewRandomStrategy()
	}, 200, 3, pctwm.Options{})
	if randRes.Hits == 0 || randRes.Hits == randRes.Runs {
		t.Fatalf("random testing should find a=b=0 sometimes, got %d/%d", randRes.Hits, randRes.Runs)
	}

	pctRes := pctwm.RunTrials(p, weak, func() pctwm.Strategy {
		return pctwm.NewPCT(1, est.K)
	}, 200, 4, pctwm.Options{})
	if pctRes.Hits == 0 {
		t.Fatalf("PCT should find a=b=0 sometimes, got %d/%d", pctRes.Hits, pctRes.Runs)
	}
}

// TestPublicAPIConsistency records executions through the public API and
// checks them against the C11 axioms.
func TestPublicAPIConsistency(t *testing.T) {
	p, _ := buildSB()
	for seed := int64(0); seed < 50; seed++ {
		o := pctwm.Run(p, pctwm.NewPCTWM(1, 2, 4), seed, pctwm.Options{Record: true})
		msgs, err := pctwm.CheckConsistency(o.Recording)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) > 0 {
			t.Fatalf("seed %d: inconsistent execution: %v", seed, msgs)
		}
	}
}

// TestCheckConsistencyMalformed: a recording whose read names an event it
// does not contain is an error from the public check, not a panic.
func TestCheckConsistencyMalformed(t *testing.T) {
	p, _ := buildSB()
	o := pctwm.Run(p, pctwm.NewRandomStrategy(), 1, pctwm.Options{Record: true})
	rec := *o.Recording
	rec.Events = slices.Clone(rec.Events)
	i := slices.IndexFunc(rec.Events, func(ev memmodel.Event) bool { return ev.Label.Kind.Reads() })
	rec.Events[i].ReadsFrom = memmodel.EventID(len(rec.Events) + 5)
	if msgs, err := pctwm.CheckConsistency(&rec); err == nil {
		t.Fatalf("malformed recording checked without error: %v", msgs)
	}
}

// TestCheckConsistencyModel: the public check uses the axioms of the
// model that recorded the execution. Under tso an RMW reads the shared
// copy of memory, which need not be its stamp predecessor in issue order,
// so SB+rmw recordings that tso accepts break rc11's atomicity axiom.
func TestCheckConsistencyModel(t *testing.T) {
	lt := litmus.SBRMW()
	r := pctwm.NewRunner(lt.Program, pctwm.Options{Model: engine.ModelTSO, Record: true})
	defer r.Close()
	strat := pctwm.NewRandomStrategy()
	rc11Flagged := 0
	for seed := int64(0); seed < 300; seed++ {
		rec := r.Run(strat, seed).Recording
		msgs, err := pctwm.CheckConsistency(rec)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) > 0 {
			t.Fatalf("seed %d: tso execution reported inconsistent: %v", seed, msgs)
		}
		asRC11 := *rec
		asRC11.Model = ""
		if msgs, _ := pctwm.CheckConsistency(&asRC11); len(msgs) > 0 {
			rc11Flagged++
		}
	}
	if rc11Flagged == 0 {
		t.Error("no tso recording of SB+rmw breaks the rc11 axioms")
	}

	// An rc11 recording whose RMW reads a stale value is still flagged.
	o := pctwm.Run(lt.Program, pctwm.NewRandomStrategy(), 1, pctwm.Options{Record: true})
	rec := *o.Recording
	rec.Events = slices.Clone(rec.Events)
	i := slices.IndexFunc(rec.Events, func(ev memmodel.Event) bool { return ev.Label.Kind == memmodel.KindRMW })
	rec.Events[i].Label.RVal++
	if msgs, err := pctwm.CheckConsistency(&rec); err != nil || len(msgs) == 0 {
		t.Errorf("rc11 mutant: messages %v, error %v; want a violation", msgs, err)
	}
}

// TestBoundsExported sanity-checks the re-exported probability bounds.
func TestBoundsExported(t *testing.T) {
	if pctwm.PCTWMBound(10, 1, 2) != 0.05 {
		t.Fatalf("PCTWMBound(10,1,2) = %v", pctwm.PCTWMBound(10, 1, 2))
	}
	if pctwm.PCTBound(2, 10, 1) != 0.5 {
		t.Fatalf("PCTBound(2,10,1) = %v", pctwm.PCTBound(2, 10, 1))
	}
}

// TestSpawnJoinThroughPublicAPI covers dynamic threads via the facade.
func TestSpawnJoinThroughPublicAPI(t *testing.T) {
	p := pctwm.NewProgram("spawn")
	x := p.Loc("X", 0)
	r := p.Loc("r", -1)
	p.AddThread(func(t *pctwm.Thread) {
		h := t.Spawn(func(c *pctwm.Thread) {
			c.Store(x, 41, pctwm.Relaxed)
		})
		t.Join(h)
		t.Store(r, t.Load(x, pctwm.Relaxed)+1, pctwm.NonAtomic)
	})
	o := pctwm.Run(p, pctwm.NewPCTWM(0, 1, 4), 1, pctwm.Options{})
	if o.FinalValues["r"] != 42 {
		t.Fatalf("spawn/join through the facade broken: %v", o.FinalValues)
	}
}
