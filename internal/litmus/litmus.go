// Package litmus provides classic weak-memory litmus tests expressed
// against the engine API, together with a runner that explores each test
// under a strategy and classifies the observed outcomes. The suite is the
// conformance test of the memory model: allowed weak behaviours must be
// observable, forbidden ones must never occur.
package litmus

import (
	"fmt"
	"sort"
	"strings"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// Test is one litmus test: a program writing its observations into
// registers, the set of allowed final register outcomes, and the subset of
// outcomes that witness genuinely weak (non-SC) behaviour.
type Test struct {
	Name        string
	Description string
	Program     *engine.Program
	// Registers are location names whose final values form the outcome.
	Registers []string
	// Allowed is the set of permitted outcomes under the default rc11
	// (C11Tester) model. When empty, every outcome not listed in
	// Forbidden is allowed.
	Allowed []string
	// Forbidden outcomes must never be observed under rc11. Redundant
	// when Allowed is exhaustive.
	Forbidden []string
	// Weak is the subset of allowed outcomes that only weak memory can
	// produce under rc11; the runner reports whether each was observed.
	Weak []string
	// PerModel overrides the outcome table for other memory-model
	// backends ("sc", "tso"). A model with no entry uses the base
	// Allowed/Forbidden/Weak — correct whenever the model's behaviours
	// coincide with rc11's on this program.
	PerModel map[string]Expectation
}

// Expectation is one memory model's outcome table for a test, with the
// same semantics as the Test base fields.
type Expectation struct {
	Allowed   []string
	Forbidden []string
	Weak      []string
}

// Expect returns the outcome table the given memory model must satisfy
// ("" means the default rc11 model).
func (t *Test) Expect(model string) Expectation {
	if model != "" && model != engine.ModelRC11 {
		if e, ok := t.PerModel[model]; ok {
			return e
		}
	}
	return Expectation{Allowed: t.Allowed, Forbidden: t.Forbidden, Weak: t.Weak}
}

// Outcome renders register values in declaration order: "a=0 b=1".
func (t *Test) Outcome(final map[string]memmodel.Value) string {
	parts := make([]string, len(t.Registers))
	for i, r := range t.Registers {
		parts[i] = fmt.Sprintf("%s=%d", r, final[r])
	}
	return strings.Join(parts, " ")
}

// Report summarizes a litmus exploration.
type Report struct {
	Test     *Test
	Runs     int
	Counts   map[string]int
	Illegal  []string // observed outcomes outside Allowed
	Missing  []string // Weak outcomes never observed
	Aborted  int
	Deadlock int
}

// OK reports whether the exploration conforms to the model: nothing
// illegal observed and every weak outcome witnessed.
func (r *Report) OK() bool { return len(r.Illegal) == 0 && len(r.Missing) == 0 }

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s runs=%d", r.Test.Name, r.Runs)
	keys := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "  [%s]×%d", k, r.Counts[k])
	}
	if len(r.Illegal) > 0 {
		fmt.Fprintf(&b, "  ILLEGAL=%v", r.Illegal)
	}
	if len(r.Missing) > 0 {
		fmt.Fprintf(&b, "  MISSING-WEAK=%v", r.Missing)
	}
	return b.String()
}

// Run explores the test for the given number of runs under strategies
// produced by newStrategy (one per run, seeded deterministically from
// seed) and classifies outcomes.
func (t *Test) Run(newStrategy func() engine.Strategy, runs int, seed int64) *Report {
	return t.RunOpts(newStrategy, runs, seed, engine.Options{})
}

// RunOpts is Run with explicit engine options — e.g. a non-default
// Model (outcomes are then classified against that model's expectation
// table). All rounds share one pooled Runner (outcomes are identical to
// per-round engine.Run by the Runner's determinism guarantee).
func (t *Test) RunOpts(newStrategy func() engine.Strategy, runs int, seed int64, opts engine.Options) *Report {
	rep := &Report{Test: t, Runs: runs, Counts: make(map[string]int)}
	exp := t.Expect(opts.Model)
	allowed := make(map[string]bool, len(exp.Allowed))
	for _, a := range exp.Allowed {
		allowed[a] = true
	}
	forbidden := make(map[string]bool, len(exp.Forbidden))
	for _, f := range exp.Forbidden {
		forbidden[f] = true
	}
	isIllegal := func(out string) bool {
		if forbidden[out] {
			return true
		}
		return len(exp.Allowed) > 0 && !allowed[out]
	}
	illegal := make(map[string]bool)
	r := engine.NewRunner(t.Program, opts)
	defer r.Close()
	for i := 0; i < runs; i++ {
		o := r.Run(newStrategy(), seed+int64(i))
		if o.Aborted {
			rep.Aborted++
			continue
		}
		if o.Deadlocked {
			rep.Deadlock++
			continue
		}
		out := t.Outcome(o.FinalValues)
		rep.Counts[out]++
		if isIllegal(out) && !illegal[out] {
			illegal[out] = true
			rep.Illegal = append(rep.Illegal, out)
		}
	}
	for _, w := range exp.Weak {
		if rep.Counts[w] == 0 {
			rep.Missing = append(rep.Missing, w)
		}
	}
	sort.Strings(rep.Illegal)
	return rep
}
