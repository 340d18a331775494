package harness_test

// Trace-equivalence gate for Runner pooling: for every litmus test and
// every paper benchmark, a warm Runner reused across all seeds (as every
// campaign worker uses it) and a fresh one-shot engine.Run must produce
// identical executions for the same strategy and seed — same recorded
// event trace (po, rf, mo, SC order, spawn/join links, location names),
// same outcome classification, same races, same final state. The golden
// digests (model_golden_test.go) pin the schedules themselves; this suite
// pins that pooled state never leaks from one run into the next.

import (
	"reflect"
	"testing"

	"pctwm/internal/benchprog"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/litmus"
)

// equivSeeds is the number of seeds each program is replayed under per
// strategy, on the warm and on fresh Runners.
const equivSeeds = 200

// checkEquivalence runs prog under mk()-built strategies on one warm
// Runner and on a fresh Runner per seed, for seeds 1..n, and compares
// every execution. Each run gets a fresh strategy instance so no strategy
// state leaks between the two runs being compared.
func checkEquivalence(t *testing.T, name string, prog *engine.Program, opts engine.Options, strategy string, mk func() engine.Strategy, n int) {
	t.Helper()
	opts.Record = true
	warm := engine.NewRunner(prog, opts)
	defer warm.Close()
	for seed := int64(1); seed <= int64(n); seed++ {
		ow := warm.Run(mk(), seed)
		of := engine.Run(prog, mk(), seed, opts)
		ow.Duration, of.Duration = 0, 0
		if !reflect.DeepEqual(ow, of) {
			t.Fatalf("%s/%s seed %d: warm Runner diverged from a fresh one\nwarm:  %+v\nfresh: %+v",
				name, strategy, seed, ow, of)
		}
	}
}

// equivStrategies under which equivalence is checked: the random baseline
// exercises broad schedule diversity; PCTWM additionally exercises the
// strategy-state protocol (priority changes, OnSpin, read picks).
func equivStrategies(depth int) map[string]func() engine.Strategy {
	if depth < 1 {
		depth = 1
	}
	return map[string]func() engine.Strategy{
		"random": func() engine.Strategy { return core.NewRandom() },
		"pctwm":  func() engine.Strategy { return core.NewPCTWM(depth, 1, 100) },
	}
}

// TestTraceEquivalenceLitmus: every litmus test produces identical traces
// on warm and fresh Runners for 200 seeds.
func TestTraceEquivalenceLitmus(t *testing.T) {
	for _, lt := range litmus.Suite() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			t.Parallel()
			for sname, mk := range equivStrategies(1) {
				checkEquivalence(t, lt.Name, lt.Program, engine.Options{}, sname, mk, equivSeeds)
			}
		})
	}
}

// TestTraceEquivalenceBenchmarks: every paper benchmark produces
// identical traces on warm and fresh Runners for 200 seeds, under the
// benchmark's own options (race detection on, stop at first bug).
func TestTraceEquivalenceBenchmarks(t *testing.T) {
	for _, b := range benchprog.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			seeds := equivSeeds
			if testing.Short() {
				seeds = 25
			}
			for sname, mk := range equivStrategies(b.Depth) {
				checkEquivalence(t, b.Name, b.Program(0), b.Options(), sname, mk, seeds)
			}
		})
	}
}
