package litmus_test

import (
	"testing"

	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/harness"
	"pctwm/internal/litmus"
)

func newRandomStrategy() engine.Strategy { return core.NewRandom() }

// campaign runs rounds of lt under the memory model as one
// harness.RunLitmus campaign, round i at seed+i, and returns its report.
// A trial whose panic the campaign quarantined fails the test.
func campaign(t *testing.T, lt *litmus.Test, newStrategy func() engine.Strategy, runs int, seed int64, model string) *litmus.Report {
	t.Helper()
	rep, _ := harness.RunLitmus(lt, newStrategy, runs, seed, engine.Options{Model: model}, harness.Campaign{Workers: 1})
	if rep.Panics > 0 {
		t.Fatalf("%d trial(s) panicked: %s", rep.Panics, rep)
	}
	return rep
}

// TestSuiteRandom explores every litmus test under the C11Tester-style
// random strategy: forbidden outcomes must never appear and every weak
// outcome must be witnessed.
func TestSuiteRandom(t *testing.T) {
	for _, lt := range litmus.Suite() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			rep := campaign(t, lt, newRandomStrategy, 2000, 1, "")
			if !rep.OK() {
				t.Fatalf("conformance failure: %s", rep)
			}
			if rep.Aborted > 0 || rep.Deadlock > 0 {
				t.Fatalf("aborted=%d deadlocked=%d: %s", rep.Aborted, rep.Deadlock, rep)
			}
		})
	}
}

// TestSuitePCT checks that the PCT variant never produces an outcome
// outside the model.
func TestSuitePCT(t *testing.T) {
	for _, lt := range litmus.Suite() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			rep := campaign(t, lt, func() engine.Strategy { return core.NewPCT(3, 20) }, 1000, 2, "")
			if len(rep.Illegal) > 0 {
				t.Fatalf("illegal outcomes under PCT: %s", rep)
			}
		})
	}
}

// TestSuitePCTWM checks the same for PCTWM across several (d, h) settings.
func TestSuitePCTWM(t *testing.T) {
	for _, lt := range litmus.Suite() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			for _, d := range []int{0, 1, 2, 3} {
				for _, h := range []int{1, 3} {
					rep := campaign(t, lt, func() engine.Strategy { return core.NewPCTWM(d, h, 10) }, 400, int64(100*d+h), "")
					if len(rep.Illegal) > 0 {
						t.Fatalf("illegal outcomes under PCTWM(d=%d,h=%d): %s", d, h, rep)
					}
				}
			}
		})
	}
}

// TestSuiteAllModels explores the full conformance suite under every
// backend with the random strategy, classifying against each model's
// expectation table: nothing illegal, every weak outcome witnessed.
func TestSuiteAllModels(t *testing.T) {
	for _, model := range engine.Models() {
		model := model
		t.Run(model, func(t *testing.T) {
			for _, lt := range litmus.Suite() {
				lt := lt
				t.Run(lt.Name, func(t *testing.T) {
					rep := campaign(t, lt, newRandomStrategy, 2000, 1, model)
					if !rep.OK() {
						t.Fatalf("conformance failure under %s: %s", model, rep)
					}
					if rep.Aborted > 0 || rep.Deadlock > 0 {
						t.Fatalf("aborted=%d deadlocked=%d under %s: %s", rep.Aborted, rep.Deadlock, model, rep)
					}
				})
			}
		})
	}
}
