package harness

import (
	"pctwm/internal/core"
	"pctwm/internal/distcheck"
	"pctwm/internal/engine"
	"pctwm/internal/litmus"
)

// DistCheckConfig parameterizes a strategy-conformance campaign. The
// zero value selects the CI defaults: PCT depth 3, PCTWM depth 2 with
// history 3, and distcheck's own run-count/seed/alpha defaults.
type DistCheckConfig struct {
	// Depth is PCT's d (default 3).
	Depth int
	// WMDepth is PCTWM's d (default 2).
	WMDepth int
	// History is PCTWM's h (default 3).
	History int
	// EstimateRuns profiles each program for k/kcom (default 32).
	EstimateRuns int
	// Check is passed through to distcheck.Run (zero fields take
	// distcheck defaults; Options applies to estimation as well).
	Check distcheck.Config
}

func (c DistCheckConfig) withDefaults() DistCheckConfig {
	if c.Depth == 0 {
		c.Depth = 3
	}
	if c.WMDepth == 0 {
		c.WMDepth = 2
	}
	if c.History == 0 {
		c.History = 3
	}
	if c.EstimateRuns == 0 {
		c.EstimateRuns = 32
	}
	return c
}

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
func distCheckStrategies(cfg DistCheckConfig) []distcheck.Strategy {
	d, wd, h := cfg.Depth, cfg.WMDepth, cfg.History
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
// regression fixture to prove detection still works.
func DistCheckCampaign(tests []*litmus.Test, cfg DistCheckConfig) (*DistCheckResult, error) {
	cfg = cfg.withDefaults()
	if tests == nil {
		tests = DistCheckSuite()
	}
	programs := make([]distcheck.Program, 0, len(tests))
	for _, lt := range tests {
		est := EstimateParams(lt.Program, cfg.EstimateRuns, cfg.Check.Seed+1, cfg.Check.Options)
		programs = append(programs, distcheck.Program{
			Prog: lt.Program,
			Params: distcheck.Params{
				Threads: est.Threads,
				Steps:   est.K,
				Comm:    est.KCom,
			},
		})
	}
	conf, err := distcheck.Run(programs, distCheckStrategies(cfg), cfg.Check)
	if err != nil {
		return nil, err
	}
	fix, err := distcheck.Run(nil, []distcheck.Strategy{distcheck.CollidingFixture()}, cfg.Check)
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
