// Package distcheck is the statistical strategy-conformance harness: it
// cross-checks the *sampling distributions* of the randomized strategies
// against exact ground truth from the exhaustive explorer. Ordinary unit
// tests pin what a strategy does on one seed; distcheck pins what the
// strategy samples in aggregate — the property the PCT/PCTWM probability
// bounds (§2.2, §5.4) are actually about, and the property that silently
// broke when priority assignment collided.
//
// Four checks, all deterministic for a fixed Config.Seed:
//
//   - support: every behavior fingerprint observed empirically must
//     appear in the exhaustive enumerate.BehaviorCensus (an observation
//     outside the census means engine nondeterminism or a census bug);
//   - uniform: for strategies sampling the uniform decision walk
//     (core.Random), a G-test of the empirical behavior frequencies
//     against the exact leaf probabilities from enumerate.BehaviorProbs,
//     conditioned on clean runs and with low-expectation bins pooled;
//   - permutation: a synthetic driver hands the strategy t freshly
//     started threads with non-communication pending ops and records the
//     order NextThread retires them. With distinct priorities the order
//     is the initial rank permutation, uniform over t! for Random, PCT
//     and PCTWM alike; colliding priorities bias ties toward low thread
//     ids and a chi-square test detects it. This is the check that fails
//     on the historical colliding assignment (CollidingFixture) and
//     passes on the fixed strategies;
//   - bound: for priority strategies, every census behavior's empirical
//     hit rate must be consistent with the strategy's per-behavior lower
//     probability bound — the Wilson interval's upper edge must reach
//     the bound, otherwise the strategy provably under-covers.
//
// The package depends on engine/enumerate/stats only; the harness wraps
// it with estimated program parameters (harness.DistCheckCampaign), and
// the report renders its results.
package distcheck

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"

	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/memmodel"
	"pctwm/internal/stats"
)

// Params are the program characteristics the PCT/PCTWM bound formulas
// need. The caller estimates them (the harness uses EstimateParams); the
// checks only consume them through Strategy.Bound.
type Params struct {
	// Threads is t: the maximum number of concurrently live threads.
	Threads int `json:"threads"`
	// Steps is k: the scheduler-step count (PCT's program length).
	Steps int `json:"steps"`
	// Comm is kcom: the communication-event count (PCTWM's k_com).
	Comm int `json:"comm"`
}

// Program is one conformance test case: a litmus-scale program small
// enough to enumerate exhaustively, plus its bound parameters.
type Program struct {
	Prog   *engine.Program
	Params Params
}

// Strategy describes one strategy under conformance test.
type Strategy struct {
	// Name identifies the strategy in results (need not match the
	// engine-facing Name(); fixtures reuse the real strategy's name with
	// a suffix).
	Name string
	// New returns a fresh instance parameterized for a program with
	// params p (the PCT/PCTWM constructors take estimated k and kcom).
	// Strategies are stateful, and the campaign runner and the synthetic
	// permutation driver must not share one.
	New func(p Params) engine.Strategy
	// Uniform marks strategies whose sampling distribution is the
	// uniform decision walk (core.Random): enables the exact G-test
	// against enumerate.BehaviorProbs.
	Uniform bool
	// Bound returns the per-behavior lower probability bound the
	// strategy guarantees on a program with params p (core.PCTBound /
	// core.PCTWMBound). nil disables the bound check.
	Bound func(p Params) float64
}

// The fixed statistical parameters of every check.
const (
	// alpha is the significance level for the chi-square and G tests:
	// strict enough to catch the collision bias within a few thousand
	// rounds, loose enough that a correct strategy passes any reasonable
	// seed.
	alpha = 1e-3
	// wilsonZ is the Wilson interval width for the bound check (95%).
	wilsonZ = 1.96
	// permThreads is the width t of the synthetic permutation check (t!
	// bins).
	permThreads = 4
)

// Config tunes the conformance campaign. The zero value is usable: every
// field has a default chosen so the fixed-seed CI suite passes on the
// correct strategies and fails on the colliding fixture. The exhaustive
// enumerations are uncapped: a truncated census is not ground truth.
type Config struct {
	// Runs is the number of executions per (program, strategy) cell.
	// Default 4000.
	Runs int `json:"runs"`
	// Seed is the master seed; every check derives its own stream
	// deterministically from it, so results are independent of check
	// ordering. Default 1.
	Seed int64 `json:"seed"`
	// PermRounds is the number of synthetic rounds. Default 6000.
	PermRounds int `json:"permRounds"`
	// Options are the engine options for both the enumerations and the
	// empirical campaigns (model selection in particular). Coverage is
	// forced on.
	Options engine.Options `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Runs == 0 {
		c.Runs = 4000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PermRounds == 0 {
		c.PermRounds = 6000
	}
	return c
}

// CheckResult is one check's verdict.
type CheckResult struct {
	// Check is "support", "uniform", "permutation" or "bound".
	Check    string `json:"check"`
	Strategy string `json:"strategy"`
	// Program is empty for the synthetic permutation check.
	Program string `json:"program,omitempty"`
	Pass    bool   `json:"pass"`
	// Stat is the test statistic (chi-square / G) where applicable.
	Stat float64 `json:"stat,omitempty"`
	// P is the p-value where applicable.
	P      float64 `json:"p,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// Report collects every check's result. Passed is the conjunction.
type Report struct {
	Results []CheckResult `json:"results"`
	Passed  bool          `json:"passed"`
}

func (r *Report) add(c CheckResult) {
	r.Results = append(r.Results, c)
	if !c.Pass {
		r.Passed = false
	}
}

// Failures returns the failing results, in check order.
func (r *Report) Failures() []CheckResult {
	var out []CheckResult
	for _, c := range r.Results {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

// deriveSeed mixes the master seed with a per-check label so every check
// gets an independent, order-insensitive random stream.
func deriveSeed(master int64, labels ...string) int64 {
	h := fnv.New64a()
	for _, l := range labels {
		h.Write([]byte(l))
		h.Write([]byte{0})
	}
	return master ^ int64(h.Sum64())
}

// Run executes the full conformance suite: the synthetic permutation
// check per strategy, then per (program, strategy) the support check and
// — where the strategy declares them — the uniform G-test and the bound
// check. Errors are infrastructural (enumeration truncated, program
// nondeterministic); statistical failures land in the report.
func Run(programs []Program, strategies []Strategy, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{Passed: true}
	for _, st := range strategies {
		res, err := permutationCheck(st, cfg)
		if err != nil {
			return nil, err
		}
		rep.add(res)
	}
	needProbs := false
	for _, st := range strategies {
		if st.Uniform {
			needProbs = true
		}
	}
	for _, pr := range programs {
		census, err := enumerate.BehaviorCensus(pr.Prog, cfg.Options, enumerate.Config{})
		if err != nil {
			return nil, fmt.Errorf("distcheck: census of %s: %w", pr.Prog.Name(), err)
		}
		if !census.Complete {
			return nil, fmt.Errorf("distcheck: census of %s truncated at %d runs: not ground truth", pr.Prog.Name(), census.Runs)
		}
		var probs map[uint64]float64
		var errMass float64
		if needProbs {
			probs, errMass, err = enumerate.BehaviorProbs(pr.Prog, cfg.Options, 0)
			if err != nil {
				return nil, fmt.Errorf("distcheck: %w", err)
			}
		}
		for _, st := range strategies {
			counts, clean := sample(pr, st, cfg)
			rep.add(supportCheck(pr, st, counts, census))
			if st.Uniform {
				rep.add(uniformCheck(pr, st, counts, clean, probs, errMass, cfg))
			}
			if st.Bound != nil {
				rep.add(boundCheck(pr, st, counts, census, cfg))
			}
		}
	}
	return rep, nil
}

// sample runs one empirical campaign cell and tallies clean-run behavior
// fingerprints. Per-run seeds come from a stream derived from the master
// seed and the cell identity, so cells are order-independent.
func sample(pr Program, st Strategy, cfg Config) (counts map[uint64]int, clean int) {
	opts := cfg.Options
	opts.Coverage = true
	r := engine.NewRunner(pr.Prog, opts)
	defer r.Close()
	strat := st.New(pr.Params)
	seeds := rand.New(rand.NewSource(deriveSeed(cfg.Seed, "cell", pr.Prog.Name(), st.Name)))
	counts = make(map[uint64]int)
	for i := 0; i < cfg.Runs; i++ {
		o := r.Run(strat, seeds.Int63())
		if o.Err != nil {
			continue
		}
		counts[o.BehaviorFP]++
		clean++
	}
	return counts, clean
}

// supportCheck verifies every empirically observed behavior appears in
// the exhaustive census.
func supportCheck(pr Program, st Strategy, counts map[uint64]int, census *enumerate.Census) CheckResult {
	known := make(map[uint64]bool, len(census.Behaviors))
	for _, e := range census.Behaviors {
		known[e.FP] = true
	}
	res := CheckResult{Check: "support", Strategy: st.Name, Program: pr.Prog.Name(), Pass: true}
	for fp, n := range counts {
		if !known[fp] {
			res.Pass = false
			res.Detail = fmt.Sprintf("behavior %#x observed %d times but absent from the exhaustive census", fp, n)
			return res
		}
	}
	res.Detail = fmt.Sprintf("%d/%d census behaviors observed", len(counts), len(census.Behaviors))
	return res
}

// uniformCheck G-tests the empirical clean-run behavior frequencies
// against the exact uniform-walk distribution, conditioned on clean runs
// (renormalized by 1−errMass) and with low-expectation bins pooled
// (expected < 5, the standard chi-square validity rule).
func uniformCheck(pr Program, st Strategy, counts map[uint64]int, clean int, probs map[uint64]float64, errMass float64, cfg Config) CheckResult {
	res := CheckResult{Check: "uniform", Strategy: st.Name, Program: pr.Prog.Name()}
	norm := 1 - errMass
	if norm <= 0 || clean == 0 {
		res.Pass = false
		res.Detail = "no clean probability mass to test against"
		return res
	}
	fps := make([]uint64, 0, len(probs))
	for fp := range probs {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	var obs []int
	var exp []float64
	pooledObs, pooledExp := 0, 0.0
	seen := make(map[uint64]bool, len(fps))
	for _, fp := range fps {
		seen[fp] = true
		e := float64(clean) * probs[fp] / norm
		o := counts[fp]
		if e < 5 {
			pooledObs += o
			pooledExp += e
			continue
		}
		obs = append(obs, o)
		exp = append(exp, e)
	}
	// Observations outside the exact support (the support check already
	// fails the report for these) still belong in the pooled bin so the
	// statistic stays well-formed.
	for fp, o := range counts {
		if !seen[fp] {
			pooledObs += o
		}
	}
	if pooledExp > 0 || pooledObs > 0 {
		obs = append(obs, pooledObs)
		exp = append(exp, pooledExp)
	}
	df := len(obs) - 1
	if df < 1 {
		res.Pass = true
		res.Detail = "single-bin distribution: nothing to test"
		return res
	}
	res.Stat = stats.GStat(obs, exp)
	res.P = stats.ChiSquareP(res.Stat, df)
	res.Pass = res.P >= alpha
	res.Detail = fmt.Sprintf("G=%.2f df=%d over %d clean runs", res.Stat, df, clean)
	return res
}

// boundCheck verifies every census behavior's empirical hit rate is
// consistent with the strategy's per-behavior lower probability bound:
// the Wilson interval's upper edge must reach the bound. A behavior whose
// optimistic rate estimate is still below the guarantee means the
// strategy under-covers it.
func boundCheck(pr Program, st Strategy, counts map[uint64]int, census *enumerate.Census, cfg Config) CheckResult {
	res := CheckResult{Check: "bound", Strategy: st.Name, Program: pr.Prog.Name(), Pass: true}
	bound := 100 * st.Bound(pr.Params)
	worst := 200.0
	for _, e := range census.Behaviors {
		hits := counts[e.FP]
		_, high := stats.Wilson(hits, cfg.Runs, wilsonZ)
		if high < worst {
			worst = high
		}
		if high < bound {
			res.Pass = false
			res.Detail = fmt.Sprintf("behavior %#x: %d/%d hits, Wilson high %.3f%% < bound %.3f%%", e.FP, hits, cfg.Runs, high, bound)
			return res
		}
	}
	res.Detail = fmt.Sprintf("all %d behaviors clear the %.3f%% bound (worst Wilson high %.3f%%)", len(census.Behaviors), bound, worst)
	return res
}

// permutationCheck drives the strategy directly — no engine — through t
// freshly started threads pending non-communication ops, recording the
// order NextThread retires them. Correct distinct-priority assignment
// makes the retirement order the initial rank permutation, uniform over
// t! (and Random is uniform trivially); colliding priorities resolve
// ties toward low thread ids and skew the distribution, which the
// chi-square test detects. No OnEvent is delivered, so PCT change points
// never fire, and the ops carry Comm=false, so PCTWM never delays: the
// check isolates exactly the initial priority assignment.
func permutationCheck(st Strategy, cfg Config) (CheckResult, error) {
	t := permThreads
	nperm := 1
	for i := 2; i <= t; i++ {
		nperm *= i
	}
	strat := st.New(Params{Threads: t, Steps: t, Comm: t})
	rng := rand.New(rand.NewSource(deriveSeed(cfg.Seed, "perm", st.Name)))
	info := engine.ProgramInfo{Name: "distcheck-perm", NumRootThreads: t}
	enabled := make([]engine.PendingOp, 0, t)
	order := make([]memmodel.ThreadID, 0, t)
	counts := make([]int, nperm)
	for round := 0; round < cfg.PermRounds; round++ {
		strat.Begin(info, rng)
		enabled = enabled[:0]
		for i := 1; i <= t; i++ {
			tid := memmodel.ThreadID(i)
			strat.OnThreadStart(tid, memmodel.InitThread)
			enabled = append(enabled, engine.PendingOp{
				TID: tid, Index: 0, Kind: memmodel.KindWrite,
				Order: memmodel.Relaxed, Loc: 1, Comm: false,
			})
		}
		order = order[:0]
		for len(enabled) > 0 {
			tid := strat.NextThread(enabled)
			at := slices.IndexFunc(enabled, func(op engine.PendingOp) bool { return op.TID == tid })
			if at < 0 {
				return CheckResult{}, fmt.Errorf("distcheck: %s scheduled thread %d which has no enabled op", st.Name, tid)
			}
			order = append(order, tid)
			enabled = slices.Delete(enabled, at, at+1)
		}
		counts[permIndex(order)]++
	}
	exp := make([]float64, nperm)
	for i := range exp {
		exp[i] = float64(cfg.PermRounds) / float64(nperm)
	}
	res := CheckResult{Check: "permutation", Strategy: st.Name}
	res.Stat = stats.ChiSquareStat(counts, exp)
	res.P = stats.ChiSquareP(res.Stat, nperm-1)
	res.Pass = res.P >= alpha
	res.Detail = fmt.Sprintf("chi2=%.2f over %d rounds, %d! orderings", res.Stat, cfg.PermRounds, t)
	return res, nil
}

// permIndex maps a retirement order of threads 1..t to its Lehmer index
// in [0, t!).
func permIndex(order []memmodel.ThreadID) int {
	idx := 0
	for i, tid := range order {
		rank := 0
		for _, later := range order[i+1:] {
			if later < tid {
				rank++
			}
		}
		idx = idx*(len(order)-i) + rank
	}
	return idx
}

// CollidingFixture is the permutation check's regression fixture: the
// priority assignment PCT and PCTWM used before priorities were made
// distinct. Each arriving thread draws highBase + Intn(2·started) with
// replacement, so threads often share a priority, and NextThread's strict
// '>' resolves every tie toward the lowest thread id — the bias that voided
// both papers' bounds. The permutation check must fail it.
func CollidingFixture() Strategy {
	return Strategy{Name: "colliding", New: func(Params) engine.Strategy { return &colliding{} }}
}

// colliding implements CollidingFixture. It has no change points: the
// permutation check delivers no events, so only the initial assignment
// matters.
type colliding struct {
	rng     *rand.Rand
	prio    []int // index = tid-1
	started int   // threads seen by OnThreadStart this run
}

func (s *colliding) Name() string { return "colliding" }

func (s *colliding) Begin(_ engine.ProgramInfo, r *rand.Rand) {
	s.rng = r
	s.prio = s.prio[:0]
	s.started = 0
}

func (s *colliding) OnThreadStart(tid, _ memmodel.ThreadID) {
	s.started++
	for len(s.prio) < int(tid) {
		s.prio = append(s.prio, 0)
	}
	// The pre-fix highBase offset is left out: a constant shift of every
	// priority changes no ordering.
	s.prio[tid-1] = s.rng.Intn(2 * s.started)
}

func (s *colliding) NextThread(enabled []engine.PendingOp) memmodel.ThreadID {
	best := enabled[0].TID
	for _, op := range enabled[1:] {
		if s.prio[op.TID-1] > s.prio[best-1] {
			best = op.TID
		}
	}
	return best
}

func (s *colliding) PickRead(rc engine.ReadContext) int { return s.rng.Intn(len(rc.Candidates)) }
func (s *colliding) OnEvent(*memmodel.Event)            {}
func (s *colliding) OnSpin(memmodel.ThreadID)           {}
