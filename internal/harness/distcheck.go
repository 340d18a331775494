package harness

import (
	"pctwm/internal/core"
	"pctwm/internal/distcheck"
	"pctwm/internal/engine"
	"pctwm/internal/litmus"
)

// The strategy parameters a conformance campaign checks, and the
// profiling budget that estimates each program's k/kcom.
const (
	distCheckPCTDepth     = 3 // PCT's d
	distCheckPCTWMDepth   = 2 // PCTWM's d
	distCheckPCTWMHistory = 3 // PCTWM's h
	distCheckEstimateRuns = 32
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

// distCheckStrategies builds the shipped strategies, parameterized per
// program by the estimated k/kcom.
func distCheckStrategies() []distcheck.Strategy {
	d, wd, h := distCheckPCTDepth, distCheckPCTWMDepth, distCheckPCTWMHistory
	return []distcheck.Strategy{
		{
			Name:    "c11tester",
			New:     func(distcheck.Params) engine.Strategy { return core.NewRandom() },
			Uniform: true,
		},
		{
			Name:  "pct",
			New:   func(p distcheck.Params) engine.Strategy { return core.NewPCT(d, p.Steps) },
			Bound: func(p distcheck.Params) float64 { return core.PCTBound(p.Threads, p.Steps, d) },
		},
		{
			Name:  "pctwm",
			New:   func(p distcheck.Params) engine.Strategy { return core.NewPCTWM(wd, h, p.Comm) },
			Bound: func(p distcheck.Params) float64 { return core.PCTWMBound(p.Comm, wd, h) },
		},
	}
}

// DistCheckCampaign runs the strategy-conformance suite over tests (nil
// selects DistCheckSuite), with each program's bound parameters profiled
// by EstimateParams, then runs the permutation check on the colliding
// regression fixture to prove detection still works. cfg is passed
// through to distcheck.Run (zero fields take distcheck defaults; its
// Options apply to the profiling runs as well).
func DistCheckCampaign(tests []*litmus.Test, cfg distcheck.Config) (*DistCheckResult, error) {
	if tests == nil {
		tests = DistCheckSuite()
	}
	programs := make([]distcheck.Program, 0, len(tests))
	for _, lt := range tests {
		est := EstimateParams(lt.Program, distCheckEstimateRuns, cfg.Seed+1, cfg.Options)
		programs = append(programs, distcheck.Program{
			Prog: lt.Program,
			Params: distcheck.Params{
				Threads: est.Threads,
				Steps:   est.K,
				Comm:    est.KCom,
			},
		})
	}
	conf, err := distcheck.Run(programs, distCheckStrategies(), cfg)
	if err != nil {
		return nil, err
	}
	fix, err := distcheck.Run(nil, []distcheck.Strategy{distcheck.CollidingFixture()}, cfg)
	if err != nil {
		return nil, err
	}
	detected := !fix.Passed
	return &DistCheckResult{
		Conformance: conf,
		Fixtures:    fix,
		Detected:    detected,
		Passed:      conf.Passed && detected,
	}, nil
}
