package apps_test

import (
	"testing"

	"pctwm/internal/apps"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/harness"
)

// TestAppsCompleteUnderAllStrategies: the applications must run to
// completion (no deadlocks; livelock escapes keep them under the step
// budget) under every strategy.
func TestAppsCompleteUnderAllStrategies(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			prog := a.Program()
			opts := a.Options()
			est := harness.EstimateParams(prog, 3, 9, opts)
			strategies := []func() engine.Strategy{
				func() engine.Strategy { return core.NewRandom() },
				func() engine.Strategy { return core.NewPCT(3, est.K) },
				func() engine.Strategy { return core.NewPCTWM(2, 1, est.KCom) },
			}
			for _, ns := range strategies {
				for seed := int64(0); seed < 5; seed++ {
					o := engine.Run(prog, ns(), seed, opts)
					if o.Deadlocked {
						t.Fatalf("%s deadlocked (seed %d, strategy %s)", a.Name, seed, ns().Name())
					}
					if o.Aborted {
						t.Fatalf("%s hit the step budget (seed %d, strategy %s, steps %d)", a.Name, seed, ns().Name(), o.Steps)
					}
				}
			}
		})
	}
}

// TestAppsExposeRaces: the paper reports that both C11Tester and PCTWM
// detect data races in all three applications; over a handful of runs the
// seeded publication races must surface.
func TestAppsExposeRaces(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			prog := a.Program()
			opts := a.Options()
			est := harness.EstimateParams(prog, 3, 10, opts)
			for name, ns := range map[string]func() engine.Strategy{
				"c11tester": func() engine.Strategy { return core.NewRandom() },
				"pctwm":     func() engine.Strategy { return core.NewPCTWM(2, 1, est.KCom) },
			} {
				found := false
				for seed := int64(0); seed < 10 && !found; seed++ {
					o := engine.Run(prog, ns(), seed, opts)
					found = len(o.Races) > 0
				}
				if !found {
					t.Fatalf("%s: no data race detected by %s in 10 runs", a.Name, name)
				}
			}
		})
	}
}

// TestByName: applications resolve by name, and an unknown name is an
// error.
func TestByName(t *testing.T) {
	for _, a := range apps.All() {
		if got, err := apps.ByName(a.Name); err != nil || got.Name != a.Name {
			t.Fatalf("ByName(%q) = %v, %v", a.Name, got, err)
		}
	}
	if _, err := apps.ByName("nope"); err == nil {
		t.Fatal("unknown app accepted")
	}
}
