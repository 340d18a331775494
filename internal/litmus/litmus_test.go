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

// TestExpectationIllegal: an outcome is illegal when Forbidden lists it
// or when an exhaustive Allowed omits it; with neither list every
// outcome is legal.
func TestExpectationIllegal(t *testing.T) {
	cases := []struct {
		name    string
		exp     Expectation
		illegal []string
		legal   []string
	}{
		{"forbidden only", IRIWSeqCst().Expect(engine.ModelRC11),
			[]string{"r1=1 r2=0 r3=1 r4=0"}, []string{"r1=1 r2=1 r3=1 r4=1", "r1=0 r2=0 r3=0 r4=0"}},
		{"exhaustive allowed", SBSeqCst().Expect(engine.ModelRC11),
			[]string{"a=0 b=0", "a=2 b=2"}, []string{"a=0 b=1", "a=1 b=0", "a=1 b=1"}},
		{"both lists", Expectation{Allowed: []string{"x=0", "x=1"}, Forbidden: []string{"x=1"}},
			[]string{"x=1", "x=2"}, []string{"x=0"}},
		{"neither list", IRIWRelaxed().Expect(engine.ModelRC11),
			nil, []string{"r1=1 r2=0 r3=1 r4=0", "r1=0 r2=0 r3=0 r4=0"}},
	}
	for _, c := range cases {
		for _, out := range c.illegal {
			if !c.exp.Illegal(out) {
				t.Errorf("%s: %q legal, want illegal", c.name, out)
			}
		}
		for _, out := range c.legal {
			if c.exp.Illegal(out) {
				t.Errorf("%s: %q illegal, want legal", c.name, out)
			}
		}
	}
}
