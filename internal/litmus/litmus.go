// Package litmus provides classic weak-memory litmus tests expressed
// against the engine API, each with the outcome table of every memory
// model, and a Report that tallies the outcomes of a campaign on a test
// (its Detect method is the harness.RunCampaign detect hook) and
// classifies them against the table. The suite is the conformance test
// of the memory model: allowed weak behaviours must be observable,
// forbidden ones must never occur.
package litmus

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"

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
	// produce under rc11; a Report lists those never observed.
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

// Illegal reports whether the model forbids outcome: Forbidden lists it,
// or Allowed is exhaustive and omits it.
func (e Expectation) Illegal(outcome string) bool {
	return slices.Contains(e.Forbidden, outcome) || len(e.Allowed) > 0 && !slices.Contains(e.Allowed, outcome)
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
// The explorer calls it once per leaf, so the key is built in a stack
// buffer and the returned string is its only allocation.
func (t *Test) Outcome(final map[string]memmodel.Value) string {
	var buf [64]byte
	b := buf[:0]
	for i, r := range t.Registers {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, r...)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(final[r]), 10)
	}
	return string(b)
}

// Report summarizes a campaign on a litmus test. Tally starts one,
// Detect counts each trial's outcome, and Finish adds the campaign's
// totals and the verdict (harness.RunLitmus does all three).
type Report struct {
	Test     *Test
	Runs     int
	Counts   map[string]int
	Illegal  []string // observed outcomes the model forbids
	Missing  []string // Weak outcomes never observed
	Aborted  int
	Deadlock int
	Panics   int // trials whose panic escaped the engine (a strategy or harness bug)

	exp Expectation
	mu  sync.Mutex // guards Counts while a campaign runs
}

// Tally starts the report of a campaign on t under the given memory
// model ("" means rc11), whose expectation table classifies the outcomes.
func (t *Test) Tally(model string) *Report {
	return &Report{Test: t, Counts: make(map[string]int), exp: t.Expect(model)}
}

// Detect is the harness.RunCampaign detect hook: it counts the trial's
// outcome and reports whether the model forbids it, so the campaign's
// Hits are its illegal trials. Aborted and deadlocked trials have no
// outcome and are not counted. Campaign workers call it concurrently.
func (r *Report) Detect(o *engine.Outcome) bool {
	if o.Aborted || o.Deadlocked {
		return false
	}
	out := r.Test.Outcome(o.FinalValues)
	r.mu.Lock()
	r.Counts[out]++
	r.mu.Unlock()
	return r.exp.Illegal(out)
}

// Finish records the campaign's totals and classifies the counted
// outcomes: the illegal ones, sorted, and the weak ones never observed.
func (r *Report) Finish(runs, aborted, deadlock, panics int) {
	r.Runs, r.Aborted, r.Deadlock, r.Panics = runs, aborted, deadlock, panics
	for out := range r.Counts {
		if r.exp.Illegal(out) {
			r.Illegal = append(r.Illegal, out)
		}
	}
	slices.Sort(r.Illegal)
	for _, w := range r.exp.Weak {
		if r.Counts[w] == 0 {
			r.Missing = append(r.Missing, w)
		}
	}
}

// OK reports whether the campaign conforms to the model: no trial
// panicked, nothing illegal observed and every weak outcome witnessed.
func (r *Report) OK() bool { return r.Panics == 0 && len(r.Illegal) == 0 && len(r.Missing) == 0 }

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s runs=%d", r.Test.Name, r.Runs)
	for _, k := range slices.Sorted(maps.Keys(r.Counts)) {
		fmt.Fprintf(&b, "  [%s]×%d", k, r.Counts[k])
	}
	if r.Panics > 0 {
		fmt.Fprintf(&b, "  PANICS=%d", r.Panics)
	}
	if len(r.Illegal) > 0 {
		fmt.Fprintf(&b, "  ILLEGAL=%v", r.Illegal)
	}
	if len(r.Missing) > 0 {
		fmt.Fprintf(&b, "  MISSING-WEAK=%v", r.Missing)
	}
	return b.String()
}
