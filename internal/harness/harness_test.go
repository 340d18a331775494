package harness

import (
	"testing"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

func simpleProgram() *engine.Program {
	p := engine.NewProgram("simple")
	x := p.Loc("X", 0)
	p.AddThread(func(t *engine.Thread) {
		t.Store(x, 1, memmodel.Relaxed)
	})
	p.AddThread(func(t *engine.Thread) {
		v := t.Load(x, memmodel.Relaxed)
		t.Assert(v == 0, "observed the write")
	})
	return p
}

func TestEstimateParams(t *testing.T) {
	p := simpleProgram()
	est := EstimateParams(p, 10, 1, engine.Options{})
	if est.K < 2 || est.KCom < 1 || est.Threads != 2 {
		t.Fatalf("estimate %+v", est)
	}
}

func TestRunTrialsCountsHits(t *testing.T) {
	p := simpleProgram()
	res := RunCampaign(p, func(o *engine.Outcome) bool { return o.BugHit },
		func() engine.Strategy { return C11Tester()(Estimate{}) }, 200, 3, engine.Options{}, Campaign{Workers: 1})
	if res.Runs != 200 {
		t.Fatalf("runs %d", res.Runs)
	}
	// The assert fires whenever the read observes the write: both
	// outcomes must occur under random testing.
	if res.Hits == 0 || res.Hits == res.Runs {
		t.Fatalf("degenerate hit count %d/%d", res.Hits, res.Runs)
	}
	if res.AvgEvents() <= 0 || res.AvgTime() <= 0 {
		t.Fatalf("averages broken: %s", res.String())
	}
}

func TestRate(t *testing.T) {
	r := TrialResult{Runs: 200, Hits: 50}
	if r.Rate() != 25 {
		t.Fatalf("rate %v", r.Rate())
	}
	if (TrialResult{}).Rate() != 0 {
		t.Fatal("zero-runs rate")
	}
}

func TestFactories(t *testing.T) {
	est := Estimate{K: 30, KCom: 12}
	if s := C11Tester()(est); s.Name() != "c11tester" {
		t.Fatalf("factory name %q", s.Name())
	}
	if s := PCTFactory(2)(est); s.Name() != "pct" {
		t.Fatalf("factory name %q", s.Name())
	}
	if s := PCTWMFactory(2, 3)(est); s.Name() != "pctwm" {
		t.Fatalf("factory name %q", s.Name())
	}
}

func TestPOSFactory(t *testing.T) {
	if s := POSFactory()(Estimate{}); s.Name() != "pos" {
		t.Fatalf("factory name %q", s.Name())
	}
}

func TestCI95(t *testing.T) {
	r := TrialResult{Runs: 100, Hits: 50}
	lo, hi := r.CI95()
	if lo >= 50 || hi <= 50 {
		t.Fatalf("CI [%v, %v] should bracket 50", lo, hi)
	}
}
