package harness_test

// Golden-digest gate for the strategies goldenCases leaves out: PCT, POS
// and the three PCTWM ablations, under rc11, on every litmus test and
// paper benchmark. rc11_golden.json pins only Random and PCTWM at
// history depth 1; these cells run the ablations at history depth 2 so
// the history window is exercised, and take k and kcom from the
// program's own estimate so change points and delays land inside the
// run. Each cell hashes 50 seeds with digestOutcome.
//
// Regenerate (only when an intentional scheduling change is made):
//
//	go test ./internal/harness -run TestStrategyGoldenDigests -update-golden

import (
	"sort"
	"testing"

	"pctwm/internal/benchprog"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/harness"
	"pctwm/internal/litmus"
)

const strategyGoldenSeeds = 50

func TestStrategyGoldenDigests(t *testing.T) {
	checkGolden(t, "testdata/strategy_golden.json", strategyGoldenCases())
}

// strategyGoldenCases builds the PCT, POS and ablation matrix. Litmus
// tests run at depth 2; a benchmark runs at its Table 1 depth (at least
// 1). PCT gets one more, so every cell samples at least one change point.
func strategyGoldenCases() []goldenCase {
	type target struct {
		name  string
		prog  *engine.Program
		opts  engine.Options
		depth int
	}
	var targets []target
	for _, lt := range litmus.Suite() {
		targets = append(targets, target{lt.Name, lt.Program, engine.Options{Model: engine.ModelRC11}, 2})
	}
	for _, b := range benchprog.All() {
		opts := b.Options()
		opts.Model = engine.ModelRC11
		targets = append(targets, target{b.Name, b.Program(0), opts, max(b.Depth, 1)})
	}
	var cases []goldenCase
	for _, tg := range targets {
		est := harness.EstimateParams(tg.prog, 5, 1, tg.opts)
		mks := map[string]func() engine.Strategy{
			"pct": func() engine.Strategy { return core.NewPCT(tg.depth+1, est.K) },
			"pos": func() engine.Strategy { return core.NewPOS() },
		}
		for _, m := range []core.Ablation{core.AblateHistory, core.AblateDelay, core.AblateLocalViews} {
			mks[m.String()] = func() engine.Strategy { return core.NewAblatedPCTWM(tg.depth, 2, est.KCom, m) }
		}
		for sname, mk := range mks {
			cases = append(cases, goldenCase{
				key: tg.name + "/" + sname, prog: tg.prog,
				opts: tg.opts, mk: mk, seeds: strategyGoldenSeeds,
			})
		}
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].key < cases[j].key })
	return cases
}
