package benchprog_test

import (
	"testing"

	"pctwm/internal/benchprog"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/harness"
)

const trialRuns = 250

// serial runs every campaign on one worker (a zero Workers means
// GOMAXPROCS).
var serial = harness.Campaign{Workers: 1}

// estimate profiles b with writes inserted writes by the one rule
// (harness.Profile), so each campaign below runs at the estimate that
// `pctwm run` and the report use.
func estimate(b *benchprog.Benchmark, writes int) harness.Estimate {
	return harness.Profile(b.Program(writes), b.Options())
}

// campaign runs b with writes inserted writes under the factory's
// strategy at est as one serial campaign of runs rounds from seed.
func campaign(b *benchprog.Benchmark, writes int, factory harness.StrategyFactory, est harness.Estimate, runs int, seed int64) harness.TrialResult {
	return harness.RunCampaign(b.Program(writes), b.Detect, func() engine.Strategy { return factory(est) }, runs, seed, b.Options(), serial)
}

// TestAllBenchmarksRunClean checks that every benchmark executes without
// aborts or deadlocks under all strategies.
func TestAllBenchmarksRunClean(t *testing.T) {
	for _, b := range benchprog.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, factory := range []harness.StrategyFactory{
				harness.C11Tester(),
				harness.PCTFactory(b.Depth + 1),
				harness.PCTWMFactory(b.Depth, 1),
			} {
				res := campaign(b, 0, factory, estimate(b, 0), 100, 7)
				if res.Aborted > 0 || res.Deadlock > 0 {
					t.Fatalf("aborted=%d deadlocked=%d", res.Aborted, res.Deadlock)
				}
			}
		})
	}
}

// TestDepthZeroBenchmarksAlwaysHit: the d=0 benchmarks must be detected by
// every PCTWM d=0 execution (paper §6.1: "PCTWM generates a single
// execution that does not introduce any communication relations and
// detects the bug in all tests").
func TestDepthZeroBenchmarksAlwaysHit(t *testing.T) {
	for _, b := range benchprog.All() {
		if b.Depth != 0 {
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res := campaign(b, 0, harness.PCTWMFactory(0, 1), estimate(b, 0), trialRuns, 11)
			if res.Hits != res.Runs {
				t.Fatalf("PCTWM d=0 hit %d/%d, want all", res.Hits, res.Runs)
			}
		})
	}
}

// TestPCTWMBeatsBaselines: on every benchmark except seqlock, PCTWM at the
// design depth detects the bug more frequently than C11Tester-style random
// testing (the paper's headline result); seqlock is the documented
// exception where restricting communication hinders the wait loops (§6.2).
func TestPCTWMBeatsBaselines(t *testing.T) {
	for _, b := range benchprog.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			random := campaign(b, 0, harness.C11Tester(), estimate(b, 0), trialRuns, 21)
			var pctwm harness.TrialResult // the better of h = 1, 2
			for h := 1; h <= 2; h++ {
				seed := int64(22 + 1000*h)
				if res := campaign(b, 0, harness.PCTWMFactory(b.Depth, h), estimate(b, 0), trialRuns, seed); res.Rate() >= pctwm.Rate() {
					pctwm = res
				}
			}
			if b.Name == "seqlock" {
				if pctwm.Rate() >= random.Rate() {
					t.Fatalf("seqlock should favor random testing: pctwm %.1f%% vs random %.1f%%", pctwm.Rate(), random.Rate())
				}
				return
			}
			if pctwm.Rate() < random.Rate() {
				t.Fatalf("pctwm %.1f%% below c11tester %.1f%%", pctwm.Rate(), random.Rate())
			}
			if pctwm.Rate() < 50 {
				t.Fatalf("pctwm rate %.1f%% suspiciously low at design depth %d", pctwm.Rate(), b.Depth)
			}
		})
	}
}

// TestBugsRequireTheSeededOrders: sanity — the detection rules must not
// fire on executions without weak behaviour. A d=0 PCTWM execution of a
// program whose reads all take thread-local views is SC-like only for the
// d>0 benchmarks, so instead we check determinism: the same seed yields
// the same outcome.
func TestDeterministicReplay(t *testing.T) {
	for _, b := range benchprog.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			prog := b.Program(0)
			for seed := int64(0); seed < 20; seed++ {
				a := engine.Run(prog, core.NewPCTWM(b.Depth, 2, 12), seed, b.Options())
				c := engine.Run(prog, core.NewPCTWM(b.Depth, 2, 12), seed, b.Options())
				if b.Detect(a) != b.Detect(c) || a.Events != c.Events || a.Steps != c.Steps {
					t.Fatalf("seed %d: non-deterministic replay (%v/%d/%d vs %v/%d/%d)",
						seed, b.Detect(a), a.Events, a.Steps, b.Detect(c), c.Events, c.Steps)
				}
			}
		})
	}
}

// TestExtraWritesDoNotChangeDepth: the Figure 6 instrumentation must not
// change PCTWM's detection ability (the inserted writes are not
// communication events).
func TestExtraWritesDoNotChangeDepth(t *testing.T) {
	for _, name := range []string{"dekker", "mpmcqueue", "rwlock", "cldeque"} {
		b, err := benchprog.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		base := campaign(b, 0, harness.PCTWMFactory(b.Depth, 1), estimate(b, 0), trialRuns, 31)
		loaded := campaign(b, 10, harness.PCTWMFactory(b.Depth, 1), estimate(b, 10), trialRuns, 32)
		if diff := base.Rate() - loaded.Rate(); diff > 25 || diff < -25 {
			t.Fatalf("%s: PCTWM rate moved from %.1f%% to %.1f%% with 10 inserted writes", name, base.Rate(), loaded.Rate())
		}
	}
}

// TestPaperP1Probability reproduces the §3.3 claim: on Program P1 with
// d=1 and h=2, PCTWM detects the bug with probability 1/2 (it reads
// either X=k-1 or X=k).
func TestPaperP1Probability(t *testing.T) {
	b := benchprog.P1(5)
	prog := b.Program(0)
	// The program has exactly one communication event (the assertion's
	// load), so kcom = 1 pins the sink on it.
	res := harness.RunCampaign(prog, b.Detect, func() engine.Strategy {
		return core.NewPCTWM(1, 2, 1)
	}, 2000, 99, b.Options(), serial)
	if r := res.Rate(); r < 42 || r > 58 {
		t.Fatalf("P1 d=1 h=2 rate %.1f%%, want ≈50%%", r)
	}
	// With h=1 the read is pinned on the mo-maximal write: always the bug.
	res = harness.RunCampaign(prog, b.Detect, func() engine.Strategy {
		return core.NewPCTWM(1, 1, 1)
	}, 500, 100, b.Options(), serial)
	if res.Hits != res.Runs {
		t.Fatalf("P1 d=1 h=1 hit %d/%d, want all", res.Hits, res.Runs)
	}
}

// TestPaperMP2Depth reproduces §5.3: MP2's bug needs two communication
// relations; PCTWM with d=2 finds it, with d=0 it cannot.
func TestPaperMP2Depth(t *testing.T) {
	b := benchprog.MP2()
	prog := b.Program(0)
	est := harness.EstimateParams(prog, 20, 5, b.Options())
	d2 := harness.RunCampaign(prog, b.Detect, func() engine.Strategy {
		return core.NewPCTWM(2, 1, est.KCom)
	}, 1000, 101, b.Options(), serial)
	if d2.Hits == 0 {
		t.Fatalf("MP2 never detected at d=2 (kcom=%d)", est.KCom)
	}
	d0 := harness.RunCampaign(prog, b.Detect, func() engine.Strategy {
		return core.NewPCTWM(0, 1, est.KCom)
	}, 500, 102, b.Options(), serial)
	if d0.Hits != 0 {
		t.Fatalf("MP2 detected %d times at d=0; the bug needs 2 communications", d0.Hits)
	}
}

// TestFixedBenchmarksAreClean: the correctly synchronized variants of
// all nine benchmarks never trip their detection rules — assertions hold,
// post-conditions hold, and no data races exist — under aggressive
// testing with every strategy. This validates that detection genuinely
// depends on the seeded weak-memory bugs rather than on the harness.
func TestFixedBenchmarksAreClean(t *testing.T) {
	for _, b := range benchprog.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			prog := b.FixedProgram()
			opts := b.Options()
			est := harness.EstimateParams(prog, 10, 3, opts)
			strategies := map[string]func() engine.Strategy{
				"c11tester": func() engine.Strategy { return core.NewRandom() },
				"pos":       func() engine.Strategy { return core.NewPOS() },
				"pct":       func() engine.Strategy { return core.NewPCT(b.Depth+2, est.K) },
				"pctwm-d":   func() engine.Strategy { return core.NewPCTWM(b.Depth, 2, est.KCom) },
				"pctwm-d2":  func() engine.Strategy { return core.NewPCTWM(b.Depth+2, 4, est.KCom) },
			}
			for name, ns := range strategies {
				for seed := int64(0); seed < 120; seed++ {
					o := engine.Run(prog, ns(), seed, opts)
					if o.BugHit {
						t.Fatalf("[%s seed %d] fixed variant asserted: %v", name, seed, o.BugMessages)
					}
					if len(o.Races) > 0 {
						t.Fatalf("[%s seed %d] fixed variant raced: %v", name, seed, o.Races[0])
					}
					if b.CheckFinal != nil && !o.Aborted && b.CheckFinal(o.FinalValues) {
						t.Fatalf("[%s seed %d] fixed variant failed the post-check: %v", name, seed, o.FinalValues)
					}
				}
			}
		})
	}
}

// TestSeededBenchmarksStillDetect guards the refactor: the seeded builds
// must still expose their bugs.
func TestSeededBenchmarksStillDetect(t *testing.T) {
	for _, b := range benchprog.All() {
		res := campaign(b, 0, harness.PCTWMFactory(b.Depth, 1), estimate(b, 0), 150, 13)
		if res.Hits == 0 {
			t.Fatalf("%s: seeded bug no longer detected", b.Name)
		}
	}
}
