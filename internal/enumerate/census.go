package enumerate

import (
	"cmp"
	"slices"

	"pctwm/internal/engine"
)

// Behavior classifies one leaf for a census: its behavior fingerprint,
// or Err for a leaf that ended in an engine error (step-limit aborts,
// deadlocks, stalls). Such a leaf is a complete schedule but carries no
// behavior fingerprint — the harness skips the same runs when
// accumulating campaign coverage — so the census counts it separately
// instead of polluting the behavior set.
type Behavior struct {
	FP  uint64
	Err bool
}

// BehaviorOf classifies a leaf explored with engine.Options.Coverage
// set.
func BehaviorOf(o *engine.Outcome) Behavior {
	if o.Err != nil {
		return Behavior{Err: true}
	}
	return Behavior{FP: o.BehaviorFP}
}

// CensusEntry is one distinct behavior in a census: its fingerprint and
// the number of decision-tree leaves (complete executions) realizing it.
type CensusEntry struct {
	FP     uint64 `json:"fp"`
	Leaves int    `json:"leaves"`
}

// Census is the exhaustive explorer's ground-truth behavior census of a
// program under one memory model: every distinct behavior fingerprint
// reachable by any scheduling and reads-from choice. A saturated
// randomized campaign's coverage.Set must contain exactly these
// fingerprints — the cross-validation the coverage tests and the CI
// smoke job pin.
type Census struct {
	Program string `json:"program"`
	Model   string `json:"model"`
	// Complete is false when the run limit or a cancellation cut the
	// enumeration short; an incomplete census is a lower bound only.
	Complete bool `json:"complete"`
	// Runs is the number of executions enumerated (including skipped).
	Runs int `json:"runs"`
	// Skipped counts leaves that ended in an engine error and therefore
	// carry no behavior.
	Skipped int `json:"skipped,omitempty"`
	// Behaviors lists the distinct behaviors sorted by fingerprint.
	Behaviors []CensusEntry `json:"behaviors"`
}

// BehaviorCensus exhaustively enumerates p under opts and returns the
// ground-truth behavior census. Coverage is forced on (the fingerprint
// is the classification key); limit and worker count come from cfg, and
// the result is bit-identical at any worker count. Drift (a
// nondeterministic program) aborts with an error.
func BehaviorCensus(p *engine.Program, opts engine.Options, cfg Config) (*Census, error) {
	opts.Coverage = true
	counts, res := Outcomes(p, opts, cfg, BehaviorOf)
	if res.Drift != nil {
		return nil, res.Drift
	}
	return NewCensus(p, opts.Model, counts, res), nil
}

// NewCensus builds the census of p under model ("" means rc11) from an
// exploration's Result and its leaf counts per BehaviorOf class.
func NewCensus(p *engine.Program, model string, counts map[Behavior]int, res Result) *Census {
	if model == "" {
		model = engine.ModelRC11
	}
	c := &Census{
		Program:  p.Name(),
		Model:    model,
		Complete: res.Complete && !res.Interrupted,
		Runs:     res.Runs,
	}
	for b, n := range counts {
		if b.Err {
			c.Skipped += n
			continue
		}
		c.Behaviors = append(c.Behaviors, CensusEntry{FP: b.FP, Leaves: n})
	}
	slices.SortFunc(c.Behaviors, func(a, b CensusEntry) int { return cmp.Compare(a.FP, b.FP) })
	return c
}

// BehaviorProbs exhaustively explores p under opts running st, and
// returns, for each behavior fingerprint, the exact probability that st
// produces it. Every draw st makes from its ProgramInfo.Rand is answered
// in turn, so a leaf reached through draws of arities a_1…a_m has
// probability prod(1/a_i); behaviors sum their leaves. Explored with
// core.Random, whose draws are the engine's scheduling and reads-from
// choices, the leaves are the census's and the distribution is the
// uniform random walk's. st must draw only Intn (POS, which draws real
// priorities, cannot be explored).
//
// The second return is the probability mass on errored leaves
// (step-limit aborts, deadlocks), which carry no behavior; conditioning
// an empirical clean-run distribution against these probabilities must
// renormalize by 1−errMass. The exploration is serial (floating-point
// accumulation is order-sensitive) and always complete: a truncated leaf
// set has no distribution.
func BehaviorProbs(p *engine.Program, opts engine.Options, st engine.Strategy) (probs map[uint64]float64, errMass float64, err error) {
	opts.Coverage = true
	probs = make(map[uint64]float64)
	r := engine.NewRunner(p, opts)
	defer r.Close()
	w := &walker{Strategy: st, r: r, tel: opts.Telemetry}
	sub := w.dfs(nil, nil, 0, nil, func(o *engine.Outcome, arity []int) {
		if o.Err != nil {
			errMass += weight(arity)
			return
		}
		probs[o.BehaviorFP] += weight(arity)
	})
	if sub.drift != nil {
		return nil, 0, sub.drift
	}
	return probs, errMass, nil
}

// Fingerprints returns the census's sorted distinct fingerprints —
// directly comparable (slices.Equal) against coverage.Set.Fingerprints.
func (c *Census) Fingerprints() []uint64 {
	out := make([]uint64, 0, len(c.Behaviors))
	for _, e := range c.Behaviors {
		out = append(out, e.FP)
	}
	return out
}
