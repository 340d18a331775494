package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"pctwm/internal/apps"
	"pctwm/internal/benchprog"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/harness"
	"pctwm/internal/litmus"
)

type cellKind int

const (
	// campaignCell runs its trials through harness.RunCampaign.
	campaignCell cellKind = iota
	// runnerCell runs its trials on one warmed engine.Runner, each Run
	// timed from outside.
	runnerCell
	// exploreCell runs an exhaustive enumerate exploration.
	exploreCell
)

// setting is one configuration a cell runs under: the engine options and
// the campaign-level switches.
type setting struct {
	opts      engine.Options
	coverage  bool // behaviour fingerprints (Campaign.Coverage / Options.Coverage)
	telemetry bool // engine counters (Campaign.Telemetry / Options.Telemetry)
	axiomCap  int  // recorded executions rebuilt and checked per cell; -1 = all
}

// cell is one program × strategy × model unit of a workload.
type cell struct {
	name    string
	kind    cellKind
	prog    *engine.Program
	base    setting
	depth   int // bug depth handed to pct/pctwm
	factory harness.StrategyFactory
	// trials is the trial count of one rep; for explore cells it caps
	// the leaves (0 = exhaustive).
	trials int
	seed   int64
	// classify names the outcome (litmus final registers; "" where not
	// needed) and says whether it is a hit: the seeded bug, a data race
	// (apps) or a weak outcome (litmus).
	classify func(*engine.Outcome) (string, bool)

	bench *benchprog.Benchmark // benchprog cells
	lt    *litmus.Test         // litmus cells

	// Filled by prepare.
	est    harness.Estimate
	runner *engine.Runner
	strat  engine.Strategy
}

func (c *cell) model() string {
	if c.base.opts.Model == "" {
		return engine.ModelRC11
	}
	return c.base.opts.Model
}

func (c *cell) newStrategy() engine.Strategy { return c.factory(c.est) }

func (c *cell) detect(o *engine.Outcome) bool {
	_, hit := c.classify(o)
	return hit
}

// workload is one benchmark input set: its cells, its correctness checks
// and the sizes of its traced-run probes.
type workload struct {
	name, why string
	build     func(scale float64) []*cell
	// check inspects the per-cell results of the reps and returns the
	// failed checks, each prefixed with the check's name.
	check func(cells []*cell, st []cellStats) []string
	// enumCap caps the leaves per program of the traced run's explorer
	// probe (0 = exhaustive); axiomCap is how many recorded executions
	// per cell its record ablation rebuilds and checks.
	enumCap, axiomCap int
	// repMedians makes the untraced run report the median of its reps'
	// times, not each trial's fastest time. The fastest time needs every
	// trial timed in many reps; a rep of seconds times each trial only 5
	// to 10 times in a run, too few for every trial to meet a quiet moment
	// of the host, and the trials left slow then set the tail.
	repMedians bool
}

var workloads = []*workload{
	{
		name:     "bughunt",
		why:      "the RQ1-3 bug-finding campaign with coverage on: short trials, so scheduling, strategy, coverage hooks and per-trial reset dominate",
		build:    buildBughunt,
		check:    checkBughunt,
		enumCap:  2000,
		axiomCap: 64,
	},
	{
		name:     "apps",
		why:      "Table 4 applications run to completion: long trials with heavy non-atomic payloads, so the race detector and rc11 view growth dominate",
		build:    buildApps,
		check:    checkApps,
		enumCap:  50,
		axiomCap: 2,
	},
	{
		name:     "models",
		why:      "bughunt's programs and harness under tso and sc: sc is the backend floor and tso exercises store buffers, so an rc11-only gain shows no change here",
		build:    buildModels,
		check:    checkModels,
		enumCap:  2000,
		axiomCap: 64,
	},
	{
		name:       "explore",
		why:        "exhaustive enumerate censuses of the litmus suite and dekker under three models: all Runner reset and explorer replay, no strategy cost",
		build:      buildExplore,
		check:      checkExplore,
		enumCap:    0,
		axiomCap:   64,
		repMedians: true,
	},
	{
		name:     "checked",
		why:      "every execution recorded and rechecked against the model axioms: the only workload where recording and the axiom checker cost as much as the run",
		build:    buildChecked,
		check:    checkChecked,
		enumCap:  2000,
		axiomCap: 64,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

var strategyNames = []string{"random", "pct", "pctwm"}

// strategyFactory builds a strategy the way the paper's tables do: pct at
// depth max(d,1), pctwm at depth d with history depth 1.
func strategyFactory(name string, depth int) harness.StrategyFactory {
	switch name {
	case "random":
		return harness.C11Tester()
	case "pct":
		return harness.PCTFactory(max(depth, 1))
	}
	return harness.PCTWMFactory(depth, 1)
}

// scaled is n trials at the given scale, at least one.
func scaled(n int, scale float64) int {
	return max(1, int(math.Round(float64(n)*scale)))
}

// exploreCap is the leaf cap of explore cells: exhaustive at full scale,
// a prefix of the tree when tests shrink the workload.
func exploreCap(scale float64) int {
	if scale >= 1 {
		return 0
	}
	return scaled(20000, scale)
}

func benchClassify(b *benchprog.Benchmark) func(*engine.Outcome) (string, bool) {
	return func(o *engine.Outcome) (string, bool) { return "", b.Detect(o) }
}

func litmusClassify(lt *litmus.Test, model string) func(*engine.Outcome) (string, bool) {
	weak := make(map[string]bool)
	for _, w := range lt.Expect(model).Weak {
		weak[w] = true
	}
	return func(o *engine.Outcome) (string, bool) {
		k := lt.Outcome(o.FinalValues)
		return k, weak[k]
	}
}

func benchCells(models, strategies []string, trials int, coverage bool) []*cell {
	var cells []*cell
	for _, model := range models {
		for _, b := range benchprog.All() {
			opts := b.Options()
			opts.Model = model
			for _, s := range strategies {
				cells = append(cells, &cell{
					name: b.Name + "/" + s + "/" + model, kind: campaignCell,
					prog: b.Program(0), base: setting{opts: opts, coverage: coverage},
					depth: b.Depth, factory: strategyFactory(s, b.Depth),
					trials: trials, classify: benchClassify(b), bench: b,
				})
			}
		}
	}
	return cells
}

func buildBughunt(scale float64) []*cell {
	return benchCells([]string{engine.ModelRC11}, strategyNames, scaled(500, scale), true)
}

// buildModels runs ten times bughunt's trials per cell: under tso the
// seeded bugs are hit in about 1 trial in 100 (never under sc), and the
// hit rate of a rep must not rest on a few dozen hits.
func buildModels(scale float64) []*cell {
	return benchCells([]string{engine.ModelTSO, engine.ModelSC}, []string{"random", "pctwm"}, scaled(5000, scale), false)
}

func buildApps(scale float64) []*cell {
	var cells []*cell
	for _, a := range apps.All() {
		for _, s := range []string{"random", "pctwm"} {
			cells = append(cells, &cell{
				name: a.Name + "/" + s + "/rc11", kind: runnerCell,
				prog: a.Program(), base: setting{opts: a.Options()},
				depth: 2, factory: strategyFactory(s, 2),
				trials: scaled(200, scale),
				classify: func(o *engine.Outcome) (string, bool) {
					return "", len(o.Races) > 0
				},
			})
		}
	}
	return cells
}

func buildExplore(scale float64) []*cell {
	var cells []*cell
	for _, model := range []string{engine.ModelRC11, engine.ModelTSO, engine.ModelSC} {
		for _, lt := range litmus.Suite() {
			cells = append(cells, &cell{
				name: lt.Name + "/" + model, kind: exploreCell, prog: lt.Program,
				base: setting{opts: engine.Options{Model: model}}, depth: 1,
				trials: exploreCap(scale), classify: litmusClassify(lt, model), lt: lt,
			})
		}
		b := benchprog.Dekker()
		opts := b.Options()
		opts.Model = model
		cells = append(cells, &cell{
			name: b.Name + "/" + model, kind: exploreCell, prog: b.Program(0),
			base: setting{opts: opts, coverage: true}, depth: b.Depth,
			trials: exploreCap(scale), classify: benchClassify(b), bench: b,
		})
	}
	return cells
}

func buildChecked(scale float64) []*cell {
	var cells []*cell
	for _, b := range benchprog.All() {
		opts := b.Options()
		opts.Record = true
		cells = append(cells, &cell{
			name: b.Name + "/pctwm/rc11", kind: runnerCell, prog: b.Program(0),
			base:  setting{opts: opts, axiomCap: -1},
			depth: b.Depth, factory: strategyFactory("pctwm", b.Depth),
			trials: scaled(150, scale), classify: benchClassify(b), bench: b,
		})
	}
	for _, model := range []string{engine.ModelRC11, engine.ModelTSO, engine.ModelSC} {
		for _, lt := range litmus.Suite() {
			cells = append(cells, &cell{
				name: lt.Name + "/random/" + model, kind: runnerCell, prog: lt.Program,
				base:  setting{opts: engine.Options{Model: model, Record: true}, axiomCap: -1},
				depth: 1, factory: strategyFactory("random", 1),
				trials: scaled(50, scale), classify: litmusClassify(lt, model), lt: lt,
			})
		}
	}
	return cells
}

// cellSeed derives a cell's trial seeds from the run seed, the workload
// and the cell, so that cells never share a seed sequence.
func cellSeed(seed int64, workload, cell string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s", seed, workload, cell)
	return int64(h.Sum64() >> 2)
}

// warmSeed keeps warm-up trials off the measured seed sequence.
const warmSeed = 0x3a17_0000_0000

// prepare builds the workload's programs and sets every cell up: seeds,
// the parameter estimate, a warmed Runner for runner cells, and warm-up
// trials. Its duration is the benchmark's set-up time.
func prepare(w *workload, seed int64, scale float64) []*cell {
	cells := w.build(scale)
	type estKey struct {
		prog  *engine.Program
		model string
	}
	ests := make(map[estKey]harness.Estimate)
	for _, c := range cells {
		c.seed = cellSeed(seed, w.name, c.name)
		opts, _ := engineOpts(c.base)
		if c.kind == exploreCell {
			enumerate.Outcomes(c.prog, opts, enumerate.Config{Workers: 1, Limit: 100},
				func(*engine.Outcome) string { return "" })
			continue
		}
		k := estKey{c.prog, c.model()}
		est, ok := ests[k]
		if !ok {
			est = harness.EstimateParams(c.prog, 20, c.seed^0x5eed, c.base.opts)
			ests[k] = est
		}
		c.est = est
		// A fifth of a rep, at most 150 trials per cell: enough to fill
		// the caches and finish lazy set-up.
		warm := max(1, min(c.trials/5, 150))
		switch c.kind {
		case campaignCell:
			harness.RunCampaign(c.prog, c.detect, c.newStrategy, warm, c.seed^warmSeed,
				c.base.opts, harness.Campaign{Workers: 1, Coverage: c.base.coverage})
		case runnerCell:
			c.runner = engine.NewRunner(c.prog, opts)
			c.strat = c.newStrategy()
			for i := range warm {
				c.runner.Run(c.strat, c.seed^warmSeed+int64(i))
			}
		}
	}
	return cells
}

func closeCells(cells []*cell) {
	for _, c := range cells {
		if c.runner != nil {
			c.runner.Close()
			c.runner = nil
		}
	}
}

// Correctness checks. Each returns the failed checks, prefixed with the
// check's name.

// checkBughunt requires every seeded bug to be hit, then runs the fixed
// pass.
func checkBughunt(cells []*cell, st []cellStats) []string {
	hits := make(map[string]int64)
	var order []string
	for i, c := range cells {
		if _, ok := hits[c.bench.Name]; !ok {
			order = append(order, c.bench.Name)
		}
		hits[c.bench.Name] += st[i].hits
	}
	var fails []string
	for _, name := range order {
		if hits[name] == 0 {
			fails = append(fails, fmt.Sprintf("every-bug-hit: no strategy detected the seeded bug in %s", name))
		}
	}
	return append(fails, fixedPass(cells)...)
}

// fixedPass runs every bughunt cell's strategy on the correctly
// synchronized variant of its program: nothing may be detected there.
func fixedPass(cells []*cell) []string {
	var fails []string
	for _, c := range cells {
		prog := c.bench.FixedProgram()
		est := harness.EstimateParams(prog, 20, c.seed^0x5eed, c.base.opts)
		res := harness.RunCampaign(prog, c.bench.Detect, func() engine.Strategy { return c.factory(est) },
			max(1, c.trials/10), c.seed, c.base.opts, harness.Campaign{Workers: 1})
		if res.Hits > 0 {
			fails = append(fails, fmt.Sprintf("fixed-clean: %s detected a bug in %d of %d trials of the fixed program",
				c.name, res.Hits, res.Runs))
		}
	}
	return fails
}

func checkModels(cells []*cell, st []cellStats) []string {
	var fails []string
	for i, c := range cells {
		if c.model() == engine.ModelSC && st[i].hits > 0 {
			fails = append(fails, fmt.Sprintf("sc-zero-hits: %s hit %d times under sc, but every seeded bug needs weak memory",
				c.name, st[i].hits))
		}
	}
	return fails
}

func checkApps(cells []*cell, st []cellStats) []string {
	var fails []string
	for i, c := range cells {
		if st[i].hits == 0 {
			fails = append(fails, fmt.Sprintf("every-cell-races: %s detected no data race in %d trials", c.name, st[i].trials))
		}
	}
	return fails
}

func checkExplore(cells []*cell, st []cellStats) []string {
	var fails []string
	dekker := make(map[string]int)
	dekkerComplete := true
	for i, c := range cells {
		s := st[i]
		if s.drift != nil {
			fails = append(fails, fmt.Sprintf("census-complete: %s: %v", c.name, s.drift))
			continue
		}
		exhaustive := c.trials == 0
		if exhaustive && (!s.complete || s.failed > 0) {
			fails = append(fails, fmt.Sprintf("census-complete: %s: complete=%v after %d leaves, %d errored",
				c.name, s.complete, s.trials, s.failed))
		}
		if c.lt != nil {
			fails = append(fails, litmusExpect(c, s, exhaustive && s.complete)...)
		}
		if c.bench != nil {
			dekker[c.model()] = s.behaviors
			dekkerComplete = dekkerComplete && exhaustive && s.complete
		}
	}
	sc, tso, rc11 := dekker[engine.ModelSC], dekker[engine.ModelTSO], dekker[engine.ModelRC11]
	if dekkerComplete && len(dekker) == 3 && !(sc <= tso && tso <= rc11) {
		fails = append(fails, fmt.Sprintf("dekker-hierarchy: behaviours sc=%d tso=%d rc11=%d, want sc ≤ tso ≤ rc11", sc, tso, rc11))
	}
	return fails
}

// litmusExpect checks a litmus cell's final-register outcomes against the
// model's expectation table; requireWeak also demands every weak outcome
// (only meaningful for a complete census).
func litmusExpect(c *cell, s cellStats, requireWeak bool) []string {
	exp := c.lt.Expect(c.model())
	allowed := make(map[string]bool)
	for _, a := range exp.Allowed {
		allowed[a] = true
	}
	forbidden := make(map[string]bool)
	for _, f := range exp.Forbidden {
		forbidden[f] = true
	}
	var fails []string
	for k := range s.outcomes {
		if k == abnormalKey {
			continue
		}
		if forbidden[k] || (len(exp.Allowed) > 0 && !allowed[k]) {
			fails = append(fails, fmt.Sprintf("litmus-expect: %s reached outcome %q, which %s forbids", c.name, k, c.model()))
		}
	}
	if requireWeak {
		for _, w := range exp.Weak {
			if s.outcomes[w] == 0 {
				fails = append(fails, fmt.Sprintf("litmus-expect: %s never reached weak outcome %q", c.name, w))
			}
		}
	}
	return fails
}

func checkChecked(cells []*cell, st []cellStats) []string {
	var fails []string
	for i, c := range cells {
		s := st[i]
		if s.violations > 0 || s.buildErrs > 0 || s.axiomExecs != s.trials {
			fails = append(fails, fmt.Sprintf("axiom-clean: %s: %d violations, %d graph-build errors, %d of %d executions checked",
				c.name, s.violations, s.buildErrs, s.axiomExecs, s.trials))
		}
		if c.lt != nil {
			fails = append(fails, litmusExpect(c, s, false)...)
		}
	}
	return fails
}
