package distcheck_test

import (
	"maps"
	"math"
	"slices"
	"testing"

	"pctwm/internal/core"
	"pctwm/internal/coverage"
	"pctwm/internal/distcheck"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/harness"
	"pctwm/internal/litmus"
)

// The sample sizes of the tests, which match the gate's.
const (
	cellRuns   = 4000
	permRounds = 6000
)

// testEstimate holds hand-estimated bound parameters (t, k, kcom) for
// the small-litmus programs below.
var testEstimate = harness.Estimate{Threads: 3, K: 12, KCom: 4}

// fixedStrategies are the shipped strategies with conservative bounds.
var fixedStrategies = []struct {
	name    string
	factory harness.StrategyFactory
	uniform bool
	bound   func(harness.Estimate) float64
}{
	{name: "c11tester", factory: harness.C11Tester(), uniform: true},
	{
		name:    "pct",
		factory: harness.PCTFactory(3),
		bound:   func(e harness.Estimate) float64 { return core.PCTBound(e.Threads, e.K, 3) },
	},
	{
		name:    "pctwm",
		factory: harness.PCTWMFactory(2, 3),
		bound:   func(e harness.Estimate) float64 { return core.PCTWMBound(e.KCom, 2, 3) },
	},
}

// sample runs one conformance cell as a campaign with coverage on.
func sample(prog *engine.Program, factory harness.StrategyFactory, seed int64) harness.TrialResult {
	noHit := func(*engine.Outcome) bool { return false }
	return harness.RunCampaign(prog, noHit, func() engine.Strategy { return factory(testEstimate) },
		cellRuns, seed, engine.Options{}, harness.Campaign{Workers: 1, Coverage: true})
}

// exact returns prog's exact uniform-walk distribution and its sorted
// support.
func exact(t *testing.T, prog *engine.Program) (probs map[uint64]float64, errMass float64, support []uint64) {
	t.Helper()
	probs, errMass, err := enumerate.BehaviorProbs(prog, engine.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return probs, errMass, slices.Sorted(maps.Keys(probs))
}

// setOf builds a behavior set holding each fingerprint its count times.
func setOf(counts map[uint64]int) *coverage.Set {
	s := &coverage.Set{}
	var trial int64
	for fp, n := range counts {
		for range n {
			s.Observe(fp, trial)
			trial++
		}
	}
	return s
}

// TestFixedStrategiesConform is the headline conformance run: with a
// fixed seed, every check passes on the shipped Random, PCT and PCTWM
// implementations.
func TestFixedStrategiesConform(t *testing.T) {
	const seed = 1
	rep := &distcheck.Report{Passed: true}
	perm := harness.Estimate{Threads: distcheck.PermThreads, K: distcheck.PermThreads, KCom: distcheck.PermThreads}
	for _, st := range fixedStrategies {
		res, err := distcheck.Permutation(st.factory(perm), distcheck.Seed(seed, "perm", st.name), permRounds)
		if err != nil {
			t.Fatal(err)
		}
		rep.Add(st.name, "", res)
	}
	for _, lt := range []*litmus.Test{litmus.SBRelaxed(), litmus.MPRelaxed()} {
		probs, errMass, support := exact(t, lt.Program)
		for _, st := range fixedStrategies {
			res := sample(lt.Program, st.factory, distcheck.Seed(seed, "cell", lt.Name, st.name))
			rep.Add(st.name, lt.Name, distcheck.Support(res.Coverage, support))
			if st.uniform {
				rep.Add(st.name, lt.Name, distcheck.Uniform(res.Coverage, probs, errMass))
			}
			if st.bound != nil {
				rep.Add(st.name, lt.Name, distcheck.Bound(res.Coverage, res.Runs, support, st.bound(testEstimate)))
			}
		}
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
	fixture := distcheck.CollidingFixture()
	res, err := distcheck.Permutation(fixture, distcheck.Seed(1, "perm", fixture.Name()), permRounds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Check != "permutation" {
		t.Fatalf("unexpected check %q", res.Check)
	}
	if res.Pass {
		t.Errorf("colliding priorities not detected (chi2=%.2f p=%g)", res.Stat, res.P)
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
		good, err := distcheck.Permutation(core.NewPCT(3, distcheck.PermThreads), distcheck.Seed(seed, "perm", "pct"), permRounds)
		if err != nil {
			t.Fatal(err)
		}
		if !good.Pass {
			t.Errorf("seed %d: fixed PCT failed (chi2=%.2f p=%g)", seed, good.Stat, good.P)
		}
		bad, err := distcheck.Permutation(distcheck.CollidingFixture(), distcheck.Seed(seed, "perm", "colliding"), permRounds)
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
	_, _, support := exact(t, litmus.SBRelaxed().Program)
	counts := map[uint64]int{support[0]: 10, 0xdeadbeef: 1}
	if res := distcheck.Support(setOf(counts), support); res.Pass {
		t.Fatal("alien fingerprint passed the support check")
	}
	delete(counts, 0xdeadbeef)
	if res := distcheck.Support(setOf(counts), support); !res.Pass {
		t.Fatalf("census-subset observations failed: %s", res.Detail)
	}
}

// TestUniformCheckDetectsSkew: a deliberately skewed sample fails the
// G-test that the true Random strategy passes.
func TestUniformCheckDetectsSkew(t *testing.T) {
	prog := litmus.SBRelaxed().Program
	probs, errMass, _ := exact(t, prog)
	obs := sample(prog, harness.C11Tester(), distcheck.Seed(1, "cell", prog.Name(), "c11tester")).Coverage
	if res := distcheck.Uniform(obs, probs, errMass); !res.Pass {
		t.Fatalf("true Random sample failed the G-test: %s p=%g", res.Detail, res.P)
	}
	// Skew: move half of the most common behavior's mass onto the least
	// common one.
	counts := map[uint64]int{}
	var maxFP, minFP uint64
	maxN, minN := -1, math.MaxInt
	for _, e := range obs.Entries() {
		n := int(e.Count)
		counts[e.FP] = n
		if n > maxN {
			maxFP, maxN = e.FP, n
		}
		if n < minN {
			minFP, minN = e.FP, n
		}
	}
	counts[maxFP] -= maxN / 2
	counts[minFP] += maxN / 2
	if res := distcheck.Uniform(setOf(counts), probs, errMass); res.Pass {
		t.Fatalf("skewed sample passed the G-test: %s p=%g", res.Detail, res.P)
	}
}
