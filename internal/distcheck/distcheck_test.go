package distcheck_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"pctwm/internal/core"
	"pctwm/internal/coverage"
	"pctwm/internal/distcheck"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/harness"
	"pctwm/internal/litmus"
)

// cellRuns is the fit check's sample size, which matches the gate's.
const cellRuns = 4000

// testEstimate holds hand-estimated bound parameters (t, k, kcom) for
// the small-litmus programs below.
var testEstimate = harness.Estimate{Threads: 3, K: 12, KCom: 4}

// fixedStrategies are the shipped strategies with conservative bounds.
var fixedStrategies = []struct {
	name    string
	factory harness.StrategyFactory
	bound   func(harness.Estimate) float64
}{
	{name: "c11tester", factory: harness.C11Tester()},
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

// exact returns the exact distribution of st on prog.
func exact(t *testing.T, prog *engine.Program, st engine.Strategy) (probs map[uint64]float64, errMass float64) {
	t.Helper()
	probs, errMass, err := enumerate.BehaviorProbs(prog, engine.Options{}, st)
	if err != nil {
		t.Fatal(err)
	}
	return probs, errMass
}

// census returns the sorted behaviors of prog's census.
func census(t *testing.T, prog *engine.Program) []uint64 {
	t.Helper()
	c, err := enumerate.BehaviorCensus(prog, engine.Options{}, enumerate.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c.Fingerprints()
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
		res, err := distcheck.Permutation(st.factory(perm))
		if err != nil {
			t.Fatal(err)
		}
		rep.Add(st.name, "", res)
	}
	for _, lt := range []*litmus.Test{litmus.SBRelaxed(), litmus.MPRelaxed()} {
		support := census(t, lt.Program)
		for _, st := range fixedStrategies {
			probs, errMass := exact(t, lt.Program, st.factory(testEstimate))
			res := sample(lt.Program, st.factory, distcheck.Seed(seed, "cell", lt.Name, st.name))
			rep.Add(st.name, lt.Name, distcheck.Fit(res.Coverage, probs, errMass))
			if st.bound != nil {
				rep.Add(st.name, lt.Name, distcheck.Bound(probs, support, st.bound(testEstimate)))
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
	// 3 permutation checks + per (2 programs × 3 strategies): fit, plus
	// bound for PCT/PCTWM.
	if len(rep.Results) != 3+2*(3+2) {
		t.Fatalf("unexpected result count %d: %+v", len(rep.Results), rep.Results)
	}
}

// beginCounter counts the runs a strategy begins.
type beginCounter struct {
	engine.Strategy
	begins int
}

func (c *beginCounter) Begin(info engine.ProgramInfo, r *rand.Rand) {
	c.begins++
	c.Strategy.Begin(info, r)
}

// TestPermutationExact pins the exact permutation check: the driver runs
// once for every answer to the strategy's draws — the thread ranks and,
// for PCT and PCTWM, the two distinct change points or delayed indices
// out of 4 — and the shipped strategies give every ordering 1/24.
func TestPermutationExact(t *testing.T) {
	perm := harness.Estimate{Threads: distcheck.PermThreads, K: distcheck.PermThreads, KCom: distcheck.PermThreads}
	want := map[string]int{"c11tester": 24, "pct": 4 * 3 * 24, "pctwm": 4 * 3 * 24}
	for _, st := range fixedStrategies {
		c := &beginCounter{Strategy: st.factory(perm)}
		res, err := distcheck.Permutation(c)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Pass || c.begins != want[st.name] {
			t.Errorf("%s: pass=%v over %d draw sequences, want every ordering at 1/24 over %d: %s",
				st.name, res.Pass, c.begins, want[st.name], res.Detail)
		}
	}
	// The fixture draws Intn(2), Intn(4), Intn(6) and Intn(8).
	c := &beginCounter{Strategy: distcheck.CollidingFixture()}
	res, err := distcheck.Permutation(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass || c.begins != 2*4*6*8 || !strings.Contains(res.Detail, "at 0 to 0.125 ") {
		t.Errorf("fixture: pass=%v over %d draw sequences, want orderings at 0 to 0.125 over 384: %s",
			res.Pass, c.begins, res.Detail)
	}
}

// TestCollidingFixturesFail pins the historical bug: the pre-fix
// colliding priority assignment (preserved as CollidingFixture) fails the
// permutation check, which is exactly the check the distinct-priority fix
// makes pass.
func TestCollidingFixturesFail(t *testing.T) {
	res, err := distcheck.Permutation(distcheck.CollidingFixture())
	if err != nil {
		t.Fatal(err)
	}
	if res.Check != "permutation" {
		t.Fatalf("unexpected check %q", res.Check)
	}
	if res.Pass {
		t.Errorf("colliding priorities not detected: %s", res.Detail)
	}
}

// TestFitCheckRejectsAlienBehavior: an observation of exact probability
// 0 fails the fit check and is named, however many clean runs surround
// it. Pooled into a bin of expectation 0, such observations once drove G
// negative and passed.
func TestFitCheckRejectsAlienBehavior(t *testing.T) {
	prog := litmus.SBRelaxed().Program
	probs, errMass := exact(t, prog, core.NewRandom())
	obs := sample(prog, harness.C11Tester(), distcheck.Seed(1, "cell", prog.Name(), "c11tester")).Coverage
	counts := map[uint64]int{}
	for _, e := range obs.Entries() {
		counts[e.FP] = int(e.Count)
	}
	for _, alien := range []int{1, 50} {
		counts[0xdeadbeef] = alien
		res := distcheck.Fit(setOf(counts), probs, errMass)
		if res.Pass || !strings.Contains(res.Detail, "0xdeadbeef") {
			t.Errorf("%d alien observations: pass=%v %s", alien, res.Pass, res.Detail)
		}
	}
}

// TestUniformCheckDetectsSkew: a deliberately skewed sample fails the
// G-test that the true Random strategy passes.
func TestUniformCheckDetectsSkew(t *testing.T) {
	prog := litmus.SBRelaxed().Program
	probs, errMass := exact(t, prog, core.NewRandom())
	obs := sample(prog, harness.C11Tester(), distcheck.Seed(1, "cell", prog.Name(), "c11tester")).Coverage
	if res := distcheck.Fit(obs, probs, errMass); !res.Pass {
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
	if res := distcheck.Fit(setOf(counts), probs, errMass); res.Pass {
		t.Fatalf("skewed sample passed the G-test: %s p=%g", res.Detail, res.P)
	}
}

// TestPCTWMDelaysBothSBscReads: at SB+sc's estimate kcom = 2, PCTWM(2, 3)
// samples both communication indices, so both reads are always delayed
// and only 1 of the census's 3 behaviors is reachable.
func TestPCTWMDelaysBothSBscReads(t *testing.T) {
	prog := litmus.SBSeqCst().Program
	est := harness.Profile(prog, engine.Options{})
	if est.KCom != 2 {
		t.Fatalf("SB+sc's kcom estimate is %d, want 2", est.KCom)
	}
	probs, errMass := exact(t, prog, harness.PCTWMFactory(2, 3)(est))
	if n := len(census(t, prog)); n != 3 {
		t.Fatalf("SB+sc census has %d behaviors, want 3", n)
	}
	if len(probs) != 1 || errMass != 0 {
		t.Fatalf("PCTWM(2, 3) reaches %d behaviors (errored mass %g), want exactly 1: %v", len(probs), errMass, probs)
	}
}

// TestStrategiesExploreLitmusSuite: PCT and PCTWM, each at the program's
// estimate, explore every rc11 litmus test without drift, and each exact
// distribution, errored mass included, sums to 1.
func TestStrategiesExploreLitmusSuite(t *testing.T) {
	strategies := map[string]harness.StrategyFactory{"pct": harness.PCTFactory(3), "pctwm": harness.PCTWMFactory(2, 3)}
	for _, lt := range litmus.Suite() {
		est := harness.Profile(lt.Program, engine.Options{})
		for name, factory := range strategies {
			probs, errMass, err := enumerate.BehaviorProbs(lt.Program, engine.Options{}, factory(est))
			if err != nil {
				t.Fatalf("%s under %s: %v", lt.Name, name, err)
			}
			total := errMass
			for _, p := range probs {
				total += p
			}
			if math.Abs(total-1) > 1e-9 {
				t.Errorf("%s under %s: probabilities sum to %v", lt.Name, name, total)
			}
		}
	}
}
