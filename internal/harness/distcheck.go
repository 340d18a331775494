package harness

import (
	"fmt"

	"pctwm/internal/core"
	"pctwm/internal/distcheck"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/litmus"
)

// The strategy parameters a conformance campaign checks, and the sample
// size of the fit check. Statistical power needs a fixed sample size, so
// it does not follow any table's run count.
const (
	distCheckPCTDepth     = 3    // PCT's d
	distCheckPCTWMDepth   = 2    // PCTWM's d
	distCheckPCTWMHistory = 3    // PCTWM's h
	distCheckRuns         = 4000 // trials per (program, strategy) cell
)

// DistCheckResult pairs the two halves of a conformance campaign: the
// shipped strategies must pass every check, and the colliding fixture
// (distcheck.CollidingFixture) must fail its permutation check (proof the
// harness still detects the bug class it was built to catch).
type DistCheckResult struct {
	// Conformance holds the fixed strategies' checks; all must pass.
	Conformance *distcheck.Report `json:"conformance"`
	// Fixtures holds the colliding fixture's permutation check, which
	// must fail.
	Fixtures *distcheck.Report `json:"fixtures"`
	// Detected is true when the colliding fixture failed.
	Detected bool `json:"detected"`
	// Passed is Conformance.Passed && Detected.
	Passed bool `json:"passed"`
}

// DistCheckSuite is the default small-litmus conformance set: programs
// with handfuls of behaviors, exhaustively enumerable in milliseconds,
// and — for the bound check — with every behavior reachable through
// communication-event delays. Write-race programs like 2+2W do not
// qualify: their mixed-final-write behavior needs a preemption between
// plain writes, which PCTWM (faithfully to the paper) never introduces,
// so the per-behavior bound does not apply to it.
func DistCheckSuite() []*litmus.Test {
	return []*litmus.Test{
		litmus.SBRelaxed(),
		litmus.MPRelaxed(),
		litmus.LoadBuffering(),
		litmus.CoRR(),
		litmus.WRC(),
	}
}

// distCheckStrategies are the shipped strategies under conformance test.
// Each is G-tested against its own exact distribution; PCT and PCTWM are
// also checked against their per-behavior lower bounds at the program's
// estimate.
var distCheckStrategies = []struct {
	name    string
	factory StrategyFactory
	bound   func(Estimate) float64
}{
	{name: "c11tester", factory: C11Tester()},
	{
		name:    "pct",
		factory: PCTFactory(distCheckPCTDepth),
		bound:   func(e Estimate) float64 { return core.PCTBound(e.Threads, e.K, distCheckPCTDepth) },
	},
	{
		name:    "pctwm",
		factory: PCTWMFactory(distCheckPCTWMDepth, distCheckPCTWMHistory),
		bound:   func(e Estimate) float64 { return core.PCTWMBound(e.KCom, distCheckPCTWMDepth, distCheckPCTWMHistory) },
	},
}

// DistCheckCampaign runs the strategy-conformance suite over tests (nil
// selects DistCheckSuite) from the master seed, then runs the permutation
// check on the colliding regression fixture to prove detection still
// works. Each program is estimated once by Profile for its strategy
// parameters and censused once; each strategy's exact distribution is
// computed once, at that estimate. Each (program, strategy) cell is one
// RunCampaign under opts from camp with coverage on, whose first round
// runs at a seed derived from the master seed and the cell, so the
// report is the same for every worker count. opts (its model) applies to
// the explorations and the profiling runs too. Errors are
// infrastructural (an exploration drifted, a campaign stopped early);
// conformance failures land in the report.
func DistCheckCampaign(tests []*litmus.Test, seed int64, opts engine.Options, camp Campaign) (*DistCheckResult, error) {
	if tests == nil {
		tests = DistCheckSuite()
	}
	conf := &distcheck.Report{Passed: true}
	permEst := Estimate{Threads: distcheck.PermThreads, K: distcheck.PermThreads, KCom: distcheck.PermThreads}
	for _, st := range distCheckStrategies {
		res, err := distcheck.Permutation(st.factory(permEst))
		if err != nil {
			return nil, err
		}
		conf.Add(st.name, "", res)
	}
	camp.Coverage = true
	noHit := func(*engine.Outcome) bool { return false }
	for _, lt := range tests {
		prog := lt.Program
		census, err := enumerate.BehaviorCensus(prog, opts, enumerate.Config{Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("distcheck: %w", err)
		}
		est := Profile(prog, opts)
		for _, st := range distCheckStrategies {
			probs, errMass, err := enumerate.BehaviorProbs(prog, opts, st.factory(est))
			if err != nil {
				return nil, fmt.Errorf("distcheck: %s under %s: %w", prog.Name(), st.name, err)
			}
			camp.CheckpointCell = "distcheck/" + prog.Name() + "/" + st.name
			res := RunCampaign(prog, noHit, func() engine.Strategy { return st.factory(est) },
				distCheckRuns, distcheck.Seed(seed, "cell", prog.Name(), st.name), opts, camp)
			if res.Interrupted {
				return nil, fmt.Errorf("distcheck: campaign %s/%s stopped after %d of %d trials", prog.Name(), st.name, res.Runs, distCheckRuns)
			}
			conf.Add(st.name, prog.Name(), distcheck.Fit(res.Coverage, probs, errMass))
			if st.bound != nil {
				conf.Add(st.name, prog.Name(), distcheck.Bound(probs, census.Fingerprints(), st.bound(est)))
			}
		}
	}
	fixture := distcheck.CollidingFixture()
	res, err := distcheck.Permutation(fixture)
	if err != nil {
		return nil, err
	}
	fix := &distcheck.Report{Passed: true}
	fix.Add(fixture.Name(), "", res)
	detected := !fix.Passed
	return &DistCheckResult{
		Conformance: conf,
		Fixtures:    fix,
		Detected:    detected,
		Passed:      conf.Passed && detected,
	}, nil
}
