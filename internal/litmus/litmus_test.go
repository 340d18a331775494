package litmus

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

func newRandomStrategy() engine.Strategy { return core.NewRandom() }

// TestSuiteRandom explores every litmus test under the C11Tester-style
// random strategy: forbidden outcomes must never appear and every weak
// outcome must be witnessed.
func TestSuiteRandom(t *testing.T) {
	for _, lt := range Suite() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			rep := lt.Run(newRandomStrategy, 2000, 1)
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
	for _, lt := range Suite() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			rep := lt.Run(func() engine.Strategy { return core.NewPCT(3, 20) }, 1000, 2)
			if len(rep.Illegal) > 0 {
				t.Fatalf("illegal outcomes under PCT: %s", rep)
			}
		})
	}
}

// TestSuitePCTWM checks the same for PCTWM across several (d, h) settings.
func TestSuitePCTWM(t *testing.T) {
	for _, lt := range Suite() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			for _, d := range []int{0, 1, 2, 3} {
				for _, h := range []int{1, 3} {
					rep := lt.Run(func() engine.Strategy { return core.NewPCTWM(d, h, 10) }, 400, int64(100*d+h))
					if len(rep.Illegal) > 0 {
						t.Fatalf("illegal outcomes under PCTWM(d=%d,h=%d): %s", d, h, rep)
					}
				}
			}
		})
	}
}

// TestOutcomeOneAlloc: the outcome key costs one allocation, the returned
// string, and renders as "r=v" pairs in register order, as it did when it
// was built with fmt.Sprintf and strings.Join.
func TestOutcomeOneAlloc(t *testing.T) {
	for _, lt := range Suite() {
		final := engine.Run(lt.Program, core.NewRandom(), 1, engine.Options{}).FinalValues
		parts := make([]string, len(lt.Registers))
		for i, r := range lt.Registers {
			parts[i] = fmt.Sprintf("%s=%d", r, final[r])
		}
		if got, want := lt.Outcome(final), strings.Join(parts, " "); got != want {
			t.Errorf("%s: Outcome = %q, want %q", lt.Name, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { lt.Outcome(final) }); n > 1 {
			t.Errorf("%s: Outcome allocates %.1f times, want at most 1", lt.Name, n)
		}
	}
	// A key longer than the stack buffer is still rendered in full.
	lt := &Test{Registers: []string{"r1", "r2", "r3", "r4"}}
	final := map[string]memmodel.Value{"r1": math.MinInt64, "r2": -1, "r3": math.MaxInt64, "r4": math.MinInt64}
	want := "r1=-9223372036854775808 r2=-1 r3=9223372036854775807 r4=-9223372036854775808"
	if got := lt.Outcome(final); got != want {
		t.Errorf("long key: Outcome = %q, want %q", got, want)
	}
}
