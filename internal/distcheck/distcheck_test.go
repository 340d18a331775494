package distcheck

import (
	"math"
	"testing"

	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/litmus"
	"pctwm/internal/memmodel"
)

func enumCensus(pr Program, cfg Config) (*enumerate.Census, error) {
	return enumerate.BehaviorCensus(pr.Prog, cfg.Options, enumerate.Config{})
}

func enumProbs(pr Program, cfg Config) (map[uint64]float64, float64, error) {
	return enumerate.BehaviorProbs(pr.Prog, cfg.Options, 0)
}

// testPrograms is the small-litmus conformance set: programs tiny enough
// to enumerate exhaustively, with hand-estimated bound parameters.
func testPrograms() []Program {
	return []Program{
		{Prog: litmus.SBRelaxed().Program, Params: Params{Threads: 3, Steps: 12, Comm: 4}},
		{Prog: litmus.MPRelaxed().Program, Params: Params{Threads: 3, Steps: 12, Comm: 4}},
	}
}

// fixedStrategies are the shipped strategies with conservative bounds.
func fixedStrategies() []Strategy {
	return []Strategy{
		{
			Name:    "c11tester",
			New:     func(Params) engine.Strategy { return core.NewRandom() },
			Uniform: true,
		},
		{
			Name: "pct",
			New:  func(p Params) engine.Strategy { return core.NewPCT(3, p.Steps) },
			Bound: func(p Params) float64 {
				return core.PCTBound(p.Threads, p.Steps, 3)
			},
		},
		{
			Name: "pctwm",
			New:  func(p Params) engine.Strategy { return core.NewPCTWM(2, 3, p.Comm) },
			Bound: func(p Params) float64 {
				return core.PCTWMBound(p.Comm, 2, 3)
			},
		},
	}
}

// TestFixedStrategiesConform is the headline conformance run: with the
// default fixed seed, every check passes on the shipped Random, PCT and
// PCTWM implementations.
func TestFixedStrategiesConform(t *testing.T) {
	rep, err := Run(testPrograms(), fixedStrategies(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		t.Logf("%-11s %-10s %-12s pass=%-5v p=%-10.3g %s",
			res.Check, res.Strategy, res.Program, res.Pass, res.P, res.Detail)
	}
	if !rep.Passed {
		t.Fatalf("conformance failures: %+v", rep.Failures())
	}
	// 3 permutation checks + per (2 programs × 3 strategies): support,
	// plus uniform for Random and bound for PCT/PCTWM.
	if len(rep.Results) != 3+2*(3+1+2) {
		t.Fatalf("unexpected result count %d: %+v", len(rep.Results), rep.Results)
	}
}

// TestCollidingFixturesFail pins the historical bug: the pre-fix
// colliding priority assignment (preserved as CollidingFixture) fails the
// permutation check, which is exactly the check the distinct-priority fix
// makes pass.
func TestCollidingFixturesFail(t *testing.T) {
	rep, err := Run(nil, []Strategy{CollidingFixture()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatalf("colliding fixtures passed the permutation check: %+v", rep.Results)
	}
	for _, res := range rep.Results {
		if res.Check != "permutation" {
			t.Fatalf("unexpected check %q with no programs", res.Check)
		}
		if res.Pass {
			t.Errorf("%s: colliding priorities not detected (chi2=%.2f p=%g)", res.Strategy, res.Stat, res.P)
		}
	}
}

// TestPermutationSeedRobustness: the permutation verdicts are not a
// one-seed fluke — correct strategies pass and colliding ones fail
// across several master seeds.
func TestPermutationSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for seed := int64(1); seed <= 5; seed++ {
		cfg := Config{Seed: seed}.withDefaults()
		good, err := permutationCheck(Strategy{
			Name: "pct", New: func(p Params) engine.Strategy { return core.NewPCT(3, p.Steps) },
		}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !good.Pass {
			t.Errorf("seed %d: fixed PCT failed (chi2=%.2f p=%g)", seed, good.Stat, good.P)
		}
		bad, err := permutationCheck(CollidingFixture(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if bad.Pass {
			t.Errorf("seed %d: colliding fixture passed (chi2=%.2f p=%g)", seed, bad.Stat, bad.P)
		}
	}
}

// TestSupportCheckRejectsAlienBehavior: an observation outside the
// census fails the support check.
func TestSupportCheckRejectsAlienBehavior(t *testing.T) {
	pr := Program{Prog: litmus.SBRelaxed().Program}
	st := Strategy{Name: "x"}
	census, err := enumCensus(pr, Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{census.Behaviors[0].FP: 10, 0xdeadbeef: 1}
	if res := supportCheck(pr, st, counts, census); res.Pass {
		t.Fatal("alien fingerprint passed the support check")
	}
	delete(counts, 0xdeadbeef)
	if res := supportCheck(pr, st, counts, census); !res.Pass {
		t.Fatalf("census-subset observations failed: %s", res.Detail)
	}
}

// TestUniformCheckDetectsSkew: a deliberately skewed sample fails the
// G-test that the true Random strategy passes.
func TestUniformCheckDetectsSkew(t *testing.T) {
	pr := Program{Prog: litmus.SBRelaxed().Program}
	cfg := Config{}.withDefaults()
	st := Strategy{Name: "c11tester", New: func(Params) engine.Strategy { return core.NewRandom() }, Uniform: true}
	counts, clean := sample(pr, st, cfg)
	probs, errMass, err := enumProbs(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res := uniformCheck(pr, st, counts, clean, probs, errMass, cfg); !res.Pass {
		t.Fatalf("true Random sample failed the G-test: %s p=%g", res.Detail, res.P)
	}
	// Skew: move half of the most common behavior's mass onto the least
	// common one.
	var maxFP, minFP uint64
	maxN, minN := -1, math.MaxInt
	for fp, n := range counts {
		if n > maxN {
			maxFP, maxN = fp, n
		}
		if n < minN {
			minFP, minN = fp, n
		}
	}
	counts[maxFP] -= maxN / 2
	counts[minFP] += maxN / 2
	if res := uniformCheck(pr, st, counts, clean, probs, errMass, cfg); res.Pass {
		t.Fatalf("skewed sample passed the G-test: %s p=%g", res.Detail, res.P)
	}
}

// TestPermIndexBijective: the Lehmer encoding is a bijection over the
// orderings actually fed to it.
func TestPermIndexBijective(t *testing.T) {
	seen := map[int]bool{}
	var rec func(rest []memmodel.ThreadID, cur []memmodel.ThreadID)
	rec = func(rest, cur []memmodel.ThreadID) {
		if len(rest) == 0 {
			idx := permIndex(cur)
			if idx < 0 || idx >= 24 || seen[idx] {
				t.Fatalf("permIndex(%v) = %d (dup=%v)", cur, idx, seen[idx])
			}
			seen[idx] = true
			return
		}
		for i, tid := range rest {
			next := append(append([]memmodel.ThreadID{}, rest[:i]...), rest[i+1:]...)
			rec(next, append(cur, tid))
		}
	}
	rec([]memmodel.ThreadID{1, 2, 3, 4}, nil)
	if len(seen) != 24 {
		t.Fatalf("covered %d/24 indices", len(seen))
	}
}
