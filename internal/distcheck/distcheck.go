// Package distcheck is the statistical strategy-conformance harness: it
// cross-checks the *sampling distributions* of the randomized strategies
// against exact ground truth from the exhaustive explorer. Ordinary unit
// tests pin what a strategy does on one seed; distcheck pins what the
// strategy samples in aggregate — the property the PCT/PCTWM probability
// bounds (§2.2, §5.4) are actually about, and the property that silently
// broke when priority assignment collided.
//
// Four checks, all deterministic for a fixed seed:
//
//   - support: every behavior fingerprint observed empirically must lie
//     in the exact support of enumerate.BehaviorProbs, the exhaustive
//     census (an observation outside it means engine nondeterminism or a
//     census bug);
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
// The package computes statistics only. The harness samples: each
// (program, strategy) cell is one harness.RunCampaign with coverage on,
// whose coverage.Set tallies the clean runs' behaviors, and
// harness.DistCheckCampaign runs the checks on it; the report renders
// the results.
package distcheck

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"slices"

	"pctwm/internal/coverage"
	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
	"pctwm/internal/stats"
)

// The fixed statistical parameters of every check.
const (
	// alpha is the significance level for the chi-square and G tests:
	// strict enough to catch the collision bias within a few thousand
	// rounds, loose enough that a correct strategy passes any reasonable
	// seed.
	alpha = 1e-3
	// wilsonZ is the Wilson interval width for the bound check (95%).
	wilsonZ = 1.96
	// PermThreads is the width t of the synthetic permutation check (t!
	// bins): the strategy under check is built for a program of t
	// threads, t steps and t communication events.
	PermThreads = 4
)

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

// Add labels c with the strategy and the program it checked (empty for
// the permutation check) and appends it.
func (r *Report) Add(strategy, program string, c CheckResult) {
	c.Strategy, c.Program = strategy, program
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

// Seed mixes the master seed with labels naming a check or a sampled
// cell, so each gets its own seed, independent of the order they run in.
func Seed(master int64, labels ...string) int64 {
	h := fnv.New64a()
	for _, l := range labels {
		h.Write([]byte(l))
		h.Write([]byte{0})
	}
	return master ^ int64(h.Sum64())
}

// tally returns the per-behavior trial counts of set.
func tally(set *coverage.Set) map[uint64]int {
	counts := make(map[uint64]int, set.Len())
	for _, e := range set.Entries() {
		counts[e.FP] = int(e.Count)
	}
	return counts
}

// Support verifies every behavior in set, a campaign's clean runs, lies
// in support, the sorted fingerprints of the program's exhaustive census.
func Support(set *coverage.Set, support []uint64) CheckResult {
	res := CheckResult{Check: "support", Pass: true}
	for _, e := range set.Entries() {
		if _, ok := slices.BinarySearch(support, e.FP); !ok {
			res.Pass = false
			res.Detail = fmt.Sprintf("behavior %#x observed %d times but absent from the exhaustive census", e.FP, e.Count)
			return res
		}
	}
	res.Detail = fmt.Sprintf("%d/%d census behaviors observed", set.Len(), len(support))
	return res
}

// Uniform G-tests the behavior frequencies in set, a campaign's clean
// runs, against probs, the exact uniform-walk distribution
// (enumerate.BehaviorProbs), conditioned on clean runs (renormalized by
// 1−errMass) and with low-expectation bins pooled (expected < 5, the
// standard chi-square validity rule).
func Uniform(set *coverage.Set, probs map[uint64]float64, errMass float64) CheckResult {
	res := CheckResult{Check: "uniform"}
	clean := int(set.Observations())
	norm := 1 - errMass
	if norm <= 0 || clean == 0 {
		res.Pass = false
		res.Detail = "no clean probability mass to test against"
		return res
	}
	counts := tally(set)
	var obs []int
	var exp []float64
	pooledObs, pooledExp := 0, 0.0
	for _, fp := range slices.Sorted(maps.Keys(probs)) {
		e := float64(clean) * probs[fp] / norm
		o := counts[fp]
		delete(counts, fp)
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
	for _, o := range counts {
		pooledObs += o
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

// Bound verifies every census behavior in support, hit by the clean runs
// in set out of a campaign of runs trials, is consistent with bound, the
// strategy's per-behavior lower probability bound: the Wilson interval's
// upper edge must reach it. A behavior whose optimistic rate estimate is
// still below the guarantee means the strategy under-covers it.
func Bound(set *coverage.Set, runs int, support []uint64, bound float64) CheckResult {
	res := CheckResult{Check: "bound", Pass: true}
	counts := tally(set)
	bound *= 100 // in percent, like stats.Wilson
	worst := 200.0
	for _, fp := range support {
		hits := counts[fp]
		_, high := stats.Wilson(hits, runs, wilsonZ)
		if high < worst {
			worst = high
		}
		if high < bound {
			res.Pass = false
			res.Detail = fmt.Sprintf("behavior %#x: %d/%d hits, Wilson high %.3f%% < bound %.3f%%", fp, hits, runs, high, bound)
			return res
		}
	}
	res.Detail = fmt.Sprintf("all %d behaviors clear the %.3f%% bound (worst Wilson high %.3f%%)", len(support), bound, worst)
	return res
}

// Permutation drives st directly — no engine — for the given number of
// rounds, each handing it PermThreads freshly started threads pending
// non-communication ops and recording the order NextThread retires them;
// seed seeds the strategy's random source. Correct distinct-priority
// assignment makes the retirement order the initial rank permutation,
// uniform over t! (and Random is uniform trivially); colliding priorities
// resolve ties toward low thread ids and skew the distribution, which the
// chi-square test detects. No OnEvent is delivered, so PCT change points
// never fire, and the ops carry Comm=false, so PCTWM never delays: the
// check isolates exactly the initial priority assignment.
func Permutation(st engine.Strategy, seed int64, rounds int) (CheckResult, error) {
	t := PermThreads
	nperm := 1
	for i := 2; i <= t; i++ {
		nperm *= i
	}
	rng := rand.New(rand.NewSource(seed))
	info := engine.ProgramInfo{Name: "distcheck-perm", NumRootThreads: t}
	enabled := make([]engine.PendingOp, 0, t)
	order := make([]memmodel.ThreadID, 0, t)
	counts := make([]int, nperm)
	for round := 0; round < rounds; round++ {
		st.Begin(info, rng)
		enabled = enabled[:0]
		for i := 1; i <= t; i++ {
			tid := memmodel.ThreadID(i)
			st.OnThreadStart(tid, memmodel.InitThread)
			enabled = append(enabled, engine.PendingOp{
				TID: tid, Index: 0, Kind: memmodel.KindWrite,
				Order: memmodel.Relaxed, Loc: 1, Comm: false,
			})
		}
		order = order[:0]
		for len(enabled) > 0 {
			tid := st.NextThread(enabled)
			at := slices.IndexFunc(enabled, func(op engine.PendingOp) bool { return op.TID == tid })
			if at < 0 {
				return CheckResult{}, fmt.Errorf("distcheck: %s scheduled thread %d which has no enabled op", st.Name(), tid)
			}
			order = append(order, tid)
			enabled = slices.Delete(enabled, at, at+1)
		}
		counts[permIndex(order)]++
	}
	exp := make([]float64, nperm)
	for i := range exp {
		exp[i] = float64(rounds) / float64(nperm)
	}
	res := CheckResult{Check: "permutation"}
	res.Stat = stats.ChiSquareStat(counts, exp)
	res.P = stats.ChiSquareP(res.Stat, nperm-1)
	res.Pass = res.P >= alpha
	res.Detail = fmt.Sprintf("chi2=%.2f over %d rounds, %d! orderings", res.Stat, rounds, t)
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
func CollidingFixture() engine.Strategy { return &colliding{} }

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
