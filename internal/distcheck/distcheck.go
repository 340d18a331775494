// Package distcheck is the strategy-conformance harness: it checks the
// *sampling distributions* of the randomized strategies against exact
// ground truth from the exhaustive explorer, which walks every answer to
// a strategy's draws (internal/enumerate). Ordinary unit tests pin what
// a strategy does on one seed; distcheck pins what the strategy samples
// in aggregate — the property the PCT/PCTWM probability bounds (§2.2,
// §5.4) are actually about, and the property that silently broke when
// priority assignment collided. Three checks:
//
//   - fit: a campaign's behavior frequencies against the exact
//     distribution of the strategy that ran it (the one sampled check);
//   - bound: every census behavior's exact probability under PCT or
//     PCTWM against the strategy's per-behavior lower bound;
//   - permutation: every initial priority rank ordering at exactly 1/t!,
//     which fails the historical colliding assignment (CollidingFixture)
//     and passes the fixed strategies.
//
// The package computes the checks only. The harness samples: each
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
	"pctwm/internal/enumerate"
	"pctwm/internal/memmodel"
	"pctwm/internal/stats"
)

// The fixed parameters of every check.
const (
	// alpha is the significance level of the G-test: a correct strategy
	// passes any reasonable seed.
	alpha = 1e-3
	// permTolerance absorbs the rounding of an ordering's summed weights.
	permTolerance = 1e-12
	// PermThreads is the width t of the synthetic permutation check (t!
	// orderings): the strategy under check is built for a program of t
	// threads, t steps and t communication events.
	PermThreads = 4
)

// CheckResult is one check's verdict.
type CheckResult struct {
	// Check is "fit", "bound" or "permutation".
	Check    string `json:"check"`
	Strategy string `json:"strategy"`
	// Program is empty for the synthetic permutation check.
	Program string `json:"program,omitempty"`
	Pass    bool   `json:"pass"`
	// Stat is the fit check's G statistic.
	Stat float64 `json:"stat,omitempty"`
	// P is the fit check's p-value.
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

// Fit G-tests the behavior frequencies in set, a campaign's clean runs,
// against probs, the exact distribution of the strategy that ran it
// (enumerate.BehaviorProbs), conditioned on clean runs (renormalized by
// 1−errMass) and with low-expectation bins pooled (expected < 5, the
// standard chi-square validity rule). An observed behavior of
// probability 0 fails the check outright and is named: no sampling noise
// explains it (engine nondeterminism, or a strategy that does not match
// its exploration), and a G statistic has no bin to count it in.
func Fit(set *coverage.Set, probs map[uint64]float64, errMass float64) CheckResult {
	res := CheckResult{Check: "fit"}
	clean := int(set.Observations())
	norm := 1 - errMass
	if norm <= 0 || clean == 0 {
		res.Detail = "no clean probability mass to test against"
		return res
	}
	counts := make(map[uint64]int, set.Len())
	for _, e := range set.Entries() {
		if probs[e.FP] <= 0 {
			res.Detail = fmt.Sprintf("behavior %#x observed %d times but has exact probability 0", e.FP, e.Count)
			return res
		}
		counts[e.FP] = int(e.Count)
	}
	var obs []int
	var exp []float64
	pooledObs, pooledExp := 0, 0.0
	for _, fp := range slices.Sorted(maps.Keys(probs)) {
		e := float64(clean) * probs[fp] / norm
		if e < 5 {
			pooledObs += counts[fp]
			pooledExp += e
			continue
		}
		obs = append(obs, counts[fp])
		exp = append(exp, e)
	}
	if pooledExp > 0 {
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

// Bound verifies that every census behavior in support reaches bound,
// the strategy's per-behavior lower probability bound, under probs, the
// strategy's exact distribution. A behavior below the bound means the
// strategy under-covers it.
func Bound(probs map[uint64]float64, support []uint64, bound float64) CheckResult {
	res := CheckResult{Check: "bound"}
	least := 1.0
	for _, fp := range support {
		p := probs[fp]
		if p < bound {
			res.Detail = fmt.Sprintf("behavior %#x: exact probability %.3f%% < bound %.3f%%", fp, 100*p, 100*bound)
			return res
		}
		least = min(least, p)
	}
	res.Pass = true
	res.Detail = fmt.Sprintf("all %d behaviors reach the %.3f%% bound (least %.3f%%, %.1f× the bound)",
		len(support), 100*bound, 100*least, least/bound)
	return res
}

// Permutation drives st directly — no engine — once for every answer to
// its draws (enumerate.Exact). Each run hands it PermThreads freshly
// started threads pending non-communication ops and records the order
// NextThread retires them. Correct distinct-priority assignment makes
// the retirement order the initial rank permutation, so every one of
// the t! orderings must have probability 1/t! (and Random is uniform
// trivially); colliding priorities resolve ties toward low thread ids
// and skew it. No OnEvent is delivered, so PCT change points never fire,
// and the ops carry Comm=false, so PCTWM never delays: the check
// isolates exactly the initial priority assignment.
func Permutation(st engine.Strategy) (CheckResult, error) {
	t := PermThreads
	nperm := 1
	for i := 2; i <= t; i++ {
		nperm *= i
	}
	info := engine.ProgramInfo{Name: "distcheck-perm", NumRootThreads: t}
	enabled := make([]engine.PendingOp, 0, t)
	order := make([]memmodel.ThreadID, 0, t)
	var stray error
	runs := 0
	probs, err := enumerate.Exact(func(src engine.Rand) int {
		runs++
		info.Rand = src
		st.Begin(info, nil)
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
				stray = fmt.Errorf("distcheck: %s scheduled thread %d which has no enabled op", st.Name(), tid)
				return -1
			}
			order = append(order, tid)
			enabled = slices.Delete(enabled, at, at+1)
		}
		return permIndex(order)
	})
	if err != nil {
		return CheckResult{}, fmt.Errorf("distcheck: %s: %w", st.Name(), err)
	}
	if stray != nil {
		return CheckResult{}, stray
	}
	uniform := 1 / float64(nperm)
	lo, hi := 1.0, 0.0
	for i := range nperm {
		lo, hi = min(lo, probs[i]), max(hi, probs[i])
	}
	return CheckResult{
		Check: "permutation",
		Pass:  uniform-lo <= permTolerance && hi-uniform <= permTolerance,
		Detail: fmt.Sprintf("%d orderings at %.4g to %.4g (uniform %.4g) over %d draw sequences",
			nperm, lo, hi, uniform, runs),
	}, nil
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
	rng     engine.Rand
	prio    []int // index = tid-1
	started int   // threads seen by OnThreadStart this run
}

func (s *colliding) Name() string { return "colliding" }

func (s *colliding) Begin(info engine.ProgramInfo, _ *rand.Rand) {
	s.rng = info.Rand
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
