package pctwm

import (
	"io"
	"math/rand"
	"testing"

	"pctwm/internal/apps"
	"pctwm/internal/axiom"
	"pctwm/internal/benchprog"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/harness"
	"pctwm/internal/litmus"
	"pctwm/internal/memmodel"
	"pctwm/internal/report"
)

// benchCfg is a scaled-down experiment configuration so one benchmark
// iteration regenerates a full (small) table or figure. Run the
// `pctwm experiments` command for paper-sized runs.
var benchCfg = report.Config{Runs: 40, Fig6Runs: 30, PerfRuns: 2, MaxH: 2, Seed: 1}

// BenchmarkTable1Estimate regenerates Table 1 (benchmark inventory with
// measured k and kcom) per iteration.
func BenchmarkTable1Estimate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.Table1(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2DepthSweep regenerates Table 2 (PCTWM rates over bug
// depths d..d+2) per iteration.
func BenchmarkTable2DepthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.Table2(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3HistorySweep regenerates Table 3 (PCTWM rates over
// history depths h=1..4) per iteration.
func BenchmarkTable3HistorySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.Table3(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Apps regenerates Table 4 (application testing overhead,
// C11Tester vs PCTWM) per iteration.
func BenchmarkTable4Apps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.Table4(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Best regenerates the Figure 5 series (highest hit rates
// per strategy per benchmark) per iteration.
func BenchmarkFigure5Best(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.Figure5(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6InsertedWrites regenerates the Figure 6 series (hit
// rate vs inserted relaxed writes) per iteration.
func BenchmarkFigure6InsertedWrites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.Figure6(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// The per-strategy engine benchmarks below measure single-execution cost
// — the quantity behind Table 4's overhead discussion (PCTWM maintains
// thread views; C11Tester-style random picks uniformly).

func benchStrategy(b *testing.B, newStrategy func(est harness.Estimate) engine.Strategy) {
	bench, err := benchprog.ByName("rwlock")
	if err != nil {
		b.Fatal(err)
	}
	prog := bench.Program(0)
	opts := bench.Options()
	est := harness.EstimateParams(prog, 5, 1, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Run(prog, newStrategy(est), int64(i), opts)
	}
}

func BenchmarkEngineRandom(b *testing.B) {
	benchStrategy(b, func(harness.Estimate) engine.Strategy { return core.NewRandom() })
}

func BenchmarkEnginePCT(b *testing.B) {
	benchStrategy(b, func(est harness.Estimate) engine.Strategy { return core.NewPCT(2, est.K) })
}

func BenchmarkEnginePCTWM(b *testing.B) {
	benchStrategy(b, func(est harness.Estimate) engine.Strategy { return core.NewPCTWM(2, 1, est.KCom) })
}

// BenchmarkTrialLoop measures the steady-state trial loop — the quantity
// the Runner refactor optimizes: one pooled Runner, one strategy value
// (Begin resets per run), a new seed each round. Compare against
// BenchmarkEnginePCTWM (one-shot engine.Run per trial) for the pooling
// win.
func BenchmarkTrialLoop(b *testing.B) {
	bench, err := benchprog.ByName("rwlock")
	if err != nil {
		b.Fatal(err)
	}
	prog := bench.Program(0)
	opts := bench.Options()
	est := harness.EstimateParams(prog, 5, 1, opts)
	r := engine.NewRunner(prog, opts)
	strat := core.NewPCTWM(2, 1, est.KCom)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(strat, int64(i))
	}
}

// BenchmarkRunnerReuse is BenchmarkTrialLoop with a fresh strategy per
// round — isolating the Runner's pooling from strategy reuse (the
// difference is the strategy's own per-run allocation).
func BenchmarkRunnerReuse(b *testing.B) {
	bench, err := benchprog.ByName("rwlock")
	if err != nil {
		b.Fatal(err)
	}
	prog := bench.Program(0)
	opts := bench.Options()
	est := harness.EstimateParams(prog, 5, 1, opts)
	r := engine.NewRunner(prog, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(core.NewPCTWM(2, 1, est.KCom), int64(i))
	}
}

// alternator grants the enabled thread after the last one granted, in
// thread-id order, so a run of two live threads hands off at every step.
type alternator struct{ last memmodel.ThreadID }

func (s *alternator) Name() string                         { return "alternate" }
func (s *alternator) Begin(engine.ProgramInfo, *rand.Rand) { s.last = 0 }
func (s *alternator) OnEvent(*memmodel.Event)              {}
func (s *alternator) OnThreadStart(_, _ memmodel.ThreadID) {}
func (s *alternator) OnSpin(memmodel.ThreadID)             {}
func (s *alternator) PickRead(engine.ReadContext) int      { return 0 }

func (s *alternator) NextThread(enabled []engine.PendingOp) memmodel.ThreadID {
	next := enabled[0].TID
	for _, op := range enabled {
		if op.TID > s.last {
			next = op.TID
			break
		}
	}
	s.last = next
	return next
}

// BenchmarkHandoff measures the scheduler's thread handoff, the per-layer
// cost of a step that switches threads: two threads of 500 relaxed stores
// under sc (the cheapest backend), alternating at every step.
func BenchmarkHandoff(b *testing.B) {
	p := engine.NewProgram("handoff")
	x := p.Loc("X", 0)
	for range 2 {
		p.AddThread(func(th *engine.Thread) {
			for i := range 500 {
				th.Store(x, memmodel.Value(i), memmodel.Relaxed)
			}
		})
	}
	r := engine.NewRunner(p, engine.Options{Model: engine.ModelSC})
	defer r.Close()
	strat := &alternator{}
	steps := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps += r.Run(strat, int64(i)).Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

// Exhaustive-exploration throughput. One iteration enumerates the full
// reachable outcome space of the litmus suite — the workload behind the
// conformance tests and the CI models job. The repository benchmark's
// explore workload times only the serial explorer, so the parallel one is
// timed here alone.

func exploreTests(b *testing.B, targets []*litmus.Test, workers int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, lt := range targets {
			_, res := enumerate.Outcomes(lt.Program, engine.Options{},
				enumerate.Config{Limit: 2_000_000, Workers: workers}, func(o *engine.Outcome) string {
					return lt.Outcome(o.FinalValues)
				})
			if res.Drift != nil {
				b.Fatal(res.Drift)
			}
			total += res.Runs
		}
		if i == 0 {
			b.ReportMetric(float64(total), "executions")
		}
	}
}

// BenchmarkExploreSuiteSerial: the pooled serial DFS (one Runner reused
// across every leaf).
func BenchmarkExploreSuiteSerial(b *testing.B) { exploreTests(b, litmus.Suite(), 1) }

// BenchmarkExploreSuiteParallel: subtree-sharded exploration on
// GOMAXPROCS workers; the counted executions are identical to serial.
func BenchmarkExploreSuiteParallel(b *testing.B) { exploreTests(b, litmus.Suite(), 0) }

// BenchmarkExploreSmallParallel: the parallel explorer on the suite's
// tests of at most 16 executions. With two or more workers the frontier
// expansion resolves each of these trees into single leaves, so this
// times the fixed cost of taking the parallel path, not its speed-up.
func BenchmarkExploreSmallParallel(b *testing.B) {
	var small []*litmus.Test
	for _, lt := range litmus.Suite() {
		_, res := enumerate.Outcomes(lt.Program, engine.Options{}, enumerate.Config{Workers: 1},
			func(*engine.Outcome) string { return "" })
		if res.Runs <= 16 {
			small = append(small, lt)
		}
	}
	exploreTests(b, small, 0)
}

// oneShotScript replicates the pre-pooling explorer's scripted strategy:
// follow a fixed decision prefix, take alternative 0 beyond it, record
// arities. Kept here so the retired one-shot exploration stays
// measurable as a baseline.
type oneShotScript struct {
	script []int
	pos    int
	arity  []int
}

func (s *oneShotScript) Name() string                         { return "oneshot-enumerate" }
func (s *oneShotScript) Begin(engine.ProgramInfo, *rand.Rand) {}
func (s *oneShotScript) OnEvent(*memmodel.Event)              {}
func (s *oneShotScript) OnThreadStart(_, _ memmodel.ThreadID) {}
func (s *oneShotScript) OnSpin(memmodel.ThreadID)             {}

func (s *oneShotScript) decide(n int) int {
	s.arity = append(s.arity, n)
	choice := 0
	if s.pos < len(s.script) {
		choice = s.script[s.pos]
	}
	s.pos++
	if choice >= n {
		choice = n - 1
	}
	return choice
}

func (s *oneShotScript) NextThread(enabled []engine.PendingOp) memmodel.ThreadID {
	return enabled[s.decide(len(enabled))].TID
}

func (s *oneShotScript) PickRead(rc engine.ReadContext) int {
	return s.decide(len(rc.Candidates))
}

// BenchmarkExploreSuiteOneShot emulates the pre-pooling explorer — a
// fresh engine.Run (fresh Runner, arenas, location tables) per leaf,
// with the same backtracking walk — so the pooling win stays measurable
// after the old path's removal.
func BenchmarkExploreSuiteOneShot(b *testing.B) {
	targets := litmus.Suite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lt := range targets {
			runs := 0
			script := []int{}
			for runs < 2_000_000 {
				s := &oneShotScript{script: script}
				engine.Run(lt.Program, s, 0, engine.Options{})
				runs++
				next := make([]int, len(s.arity))
				copy(next, script)
				j := len(s.arity) - 1
				for j >= 0 && next[j]+1 >= s.arity[j] {
					j--
				}
				if j < 0 {
					break
				}
				script = append(next[:j:j], next[j]+1)
			}
		}
	}
}

// BenchmarkAblations regenerates the ablation study (PCTWM ingredient
// contributions) per iteration.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := report.Ablations(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Axiom recheck cost. Each iteration rebuilds one recorded execution as
// an axiom graph and checks it against the model that recorded it, so
// ns/op and allocs/op are per execution; iterations cycle through the
// recordings in the order they were made.

// recorded is one recording with the model that produced it.
type recorded struct {
	rec   *engine.Recording
	model string
}

// recordRuns records trials runs of prog under opts, seeded 0..trials-1.
func recordRuns(prog *engine.Program, opts engine.Options, strat engine.Strategy, trials int) []recorded {
	opts.Record = true
	r := engine.NewRunner(prog, opts)
	defer r.Close()
	recs := make([]recorded, trials)
	for i := range recs {
		recs[i] = recorded{r.Run(strat, int64(i)).Recording, opts.Model}
	}
	return recs
}

func benchRecheck(b *testing.B, recs []recorded) {
	events := 0
	for _, x := range recs {
		events += len(x.rec.Events)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := recs[i%len(recs)]
		g, err := axiom.FromRecording(x.rec)
		if err != nil {
			b.Fatal(err)
		}
		if vs := g.CheckModel(x.model); len(vs) > 0 {
			b.Fatalf("%s execution rechecked inconsistent: %v", x.model, vs[0])
		}
	}
	b.ReportMetric(float64(events)/float64(len(recs)), "events/exec")
}

// BenchmarkRecheck rechecks the executions of the repository benchmark's
// checked workload: the nine paper benchmarks under PCTWM (150 runs
// each) and the litmus suite under random on rc11, tso and sc (50 runs
// per test and model), 6,150 recordings of 13.6 events on average.
func BenchmarkRecheck(b *testing.B) {
	var recs []recorded
	for _, bp := range benchprog.All() {
		prog, opts := bp.Program(0), bp.Options()
		est := harness.EstimateParams(prog, 20, 1, opts)
		recs = append(recs, recordRuns(prog, opts, core.NewPCTWM(bp.Depth, 1, est.KCom), 150)...)
	}
	for _, model := range engine.Models() {
		for _, lt := range litmus.Suite() {
			recs = append(recs, recordRuns(lt.Program, engine.Options{Model: model}, core.NewRandom(), 50)...)
		}
	}
	benchRecheck(b, recs)
}

// BenchmarkRecheckApps rechecks apps-sized executions: ten rc11 runs of
// each application under random, about 500 events each.
func BenchmarkRecheckApps(b *testing.B) {
	var recs []recorded
	for _, a := range apps.All() {
		recs = append(recs, recordRuns(a.Program(), a.Options(), core.NewRandom(), 10)...)
	}
	benchRecheck(b, recs)
}
