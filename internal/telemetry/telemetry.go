// Package telemetry is the low-overhead instrumentation layer of the
// repository: per-Runner engine counters (plain fields, no atomics, no
// allocation on the hot path), campaign-level metrics shared by worker
// pools (atomics, updated only at trial boundaries), log-bucketed
// histograms, a Prometheus/expvar HTTP endpoint, and a periodic one-line
// progress reporter.
//
// The design has two layers matching the two update frequencies:
//
//   - EngineCounters is attached to one engine.Runner via
//     engine.Options.Telemetry and written with plain (non-atomic) field
//     increments from inside the step loop. A Runner is single-threaded
//     by contract, so no synchronization is needed; with a nil pointer
//     the engine pays exactly one predictable branch per hook and
//     allocates nothing.
//   - Metrics is shared by all workers of a campaign and updated with
//     atomics once per *trial* (thousands of events per trial), so the
//     synchronization cost is invisible. Worker-local EngineCounters are
//     merged into Metrics when each worker exits, which keeps merged
//     totals bit-identical between serial and parallel campaigns.
//
// The package deliberately depends only on the standard library and
// internal/memmodel (for kind/order names), so every other layer —
// engine, harness, report, the CLIs — can import it without cycles.
package telemetry

import (
	"math/bits"
	"strconv"

	"pctwm/internal/memmodel"
)

// NumKinds and NumOrders size the dense op-count matrix. They must cover
// every memmodel.Kind / memmodel.Order value (asserted by a test).
const (
	NumKinds  = 7 // R, W, U, F, Spawn, Join, Assert
	NumOrders = 6 // na, rlx, acq, rel, acq-rel, sc
)

// HistBuckets is the number of log2 buckets in a Hist. Bucket i counts
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i); the
// last bucket absorbs everything larger. 28 buckets cover values up to
// ~134M, far beyond any per-trial quantity the engine observes (candidate
// bag sizes, change-point depths) while keeping the struct compact.
const HistBuckets = 28

// Hist is a log2-bucketed histogram with plain (non-atomic) fields, for
// single-writer accumulation inside one Runner.
type Hist struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [HistBuckets]uint64
}

// histBucket maps a value onto its log2 bucket index.
func histBucket(v uint64) int {
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket i (2^i - 1);
// the last bucket is unbounded (callers render it as +Inf).
func BucketUpper(i int) uint64 {
	return uint64(1)<<uint(i) - 1
}

// BucketLabel renders bucket i's inclusive upper bound. This is the one
// shared boundary table: the Prometheus exposition (histogram `le`
// labels) and the CSV/report histogram columns both go through it, so
// the bucket boundaries shown on /metrics and in reports cannot drift
// apart. The last bucket is unbounded and renders as "+Inf".
func BucketLabel(i int) string {
	if i >= HistBuckets-1 {
		return "+Inf"
	}
	return strconv.FormatUint(BucketUpper(i), 10)
}

// BucketLabels returns the labels of all HistBuckets buckets in order
// (see BucketLabel).
func BucketLabels() [HistBuckets]string {
	var out [HistBuckets]string
	for i := range out {
		out[i] = BucketLabel(i)
	}
	return out
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.Buckets[histBucket(v)]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Merge accumulates o into h. Merging is commutative and associative, so
// totals are independent of worker interleaving.
func (h *Hist) Merge(o *Hist) {
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the mean observed value, zero-guarded (0 for an empty
// histogram — never NaN, so JSON encoding cannot fail).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// HistSummary is the JSON-facing digest of a Hist.
type HistSummary struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Max   uint64  `json:"max"`
	Mean  float64 `json:"mean"`
}

// Summary digests the histogram.
func (h *Hist) Summary() HistSummary {
	return HistSummary{Count: h.Count, Sum: h.Sum, Max: h.Max, Mean: h.Mean()}
}

// ChangePoint records one PCTWM priority change point: the pending event
// that was delayed (identified by thread and po index, a stable identity
// for a not-yet-executed event), the communication-event encounter index
// it landed on, and the reserved priority slot it was demoted into.
type ChangePoint struct {
	TID memmodel.ThreadID `json:"tid"`
	// Index is the po index of the delayed event within its thread.
	Index int `json:"index"`
	// Comm is the 1-based communication-event encounter index (the
	// sampled d_k of Algorithm 1) at which the change point landed.
	Comm int `json:"comm"`
	// Slot is the reserved low-priority slot (d-k+1) the thread moved to.
	Slot int `json:"slot"`
}

// maxChangePointLog bounds the per-Runner change-point log. The log is a
// per-execution diagnostic (the Perfetto exporter marks change points on
// schedule traces); campaigns that run millions of trials only keep the
// first entries and rely on the ChangePointDepth histogram for aggregate
// shape.
const maxChangePointLog = 256

// EngineCounters accumulates per-execution engine statistics for one
// Runner. All fields are plain (non-atomic): a Runner is single-threaded
// by contract, and campaigns give every worker its own EngineCounters,
// merged at the end (see Merge). The zero value is ready to use.
//
// An EngineCounters must not be shared by Runners that run concurrently.
type EngineCounters struct {
	// Model tags the counters with the memory-model backend that produced
	// them ("rc11", "sc", "tso"). The engine stamps it on first use; Merge
	// keeps the first non-empty tag (campaigns run one model at a time).
	Model string
	// Trials counts completed engine runs.
	Trials uint64
	// Ops counts executed events by [kind][order] (dense matrix; index
	// with memmodel.Kind / memmodel.Order values).
	Ops [NumKinds][NumOrders]uint64
	// Handoffs counts scheduler grants that moved execution to a
	// different thread (a coroutine switch); SameThreadGrants counts
	// grants that kept the current thread running (zero switches). Both
	// are derived purely from the schedule, so they are bit-identical
	// across worker counts.
	Handoffs         uint64
	SameThreadGrants uint64
	// RFCandidates is the distribution of coherence-legal candidate-bag
	// sizes materialized for reads — how many visible writes each read
	// had to choose from (the paper's readGlobal search space).
	RFCandidates Hist
	// ChangePointDepth is the distribution of communication-event
	// encounter indices at which PCTWM priority change points landed.
	ChangePointDepth Hist
	// RaceChecks counts vector-clock race-detector access checks.
	RaceChecks uint64
	// Drains counts buffered stores flushed to shared memory by the tso
	// backend (always zero under rc11/sc, which have no store buffers).
	Drains uint64
	// AxiomRecheckNs is the cumulative wall time (ns) spent re-checking
	// recorded executions against their model's axioms. A recheck is the
	// graph build and the check together (tools and tests call
	// AddAxiomRecheck around axiom.FromRecording and Graph.CheckModel),
	// since the check derives hb and sw itself.
	AxiomRecheckNs uint64
	// ExploreRuns counts engine executions performed by the exhaustive
	// explorer (internal/enumerate): counted leaves plus frontier-expansion
	// probes and merge-time re-descents. Unlike enumerate.Result.Runs this
	// is a work counter — it includes executions whose results were
	// discarded, so its value may vary with the worker count.
	ExploreRuns uint64
	// ExplorePruned counts frontier subtrees the parallel explorer skipped
	// or discarded without merging: the run limit was already covered by
	// lexicographically earlier shards, or a drift abort cut the
	// exploration short. Scheduling-dependent, like ExploreRuns.
	ExplorePruned uint64

	// ChangePoints is the capped per-Runner change-point log (see
	// maxChangePointLog). It is a diagnostic for single-execution trace
	// export: Merge does not merge it, so merged totals stay
	// deterministic regardless of worker interleaving, and checkpoints
	// do not store it.
	ChangePoints []ChangePoint `json:"-"`
}

// CountOp records one executed event by kind and order. Out-of-range
// values (future enum growth) are dropped rather than corrupting memory.
func (c *EngineCounters) CountOp(kind memmodel.Kind, order memmodel.Order) {
	if int(kind) < NumKinds && int(order) < NumOrders {
		c.Ops[kind][order]++
	}
}

// LogChangePoint appends to the capped change-point log and observes the
// depth histogram.
func (c *EngineCounters) LogChangePoint(cp ChangePoint) {
	c.ChangePointDepth.Observe(uint64(cp.Comm))
	if len(c.ChangePoints) < maxChangePointLog {
		c.ChangePoints = append(c.ChangePoints, cp)
	}
}

// AddAxiomRecheck accumulates consistency-recheck wall time.
func (c *EngineCounters) AddAxiomRecheck(ns int64) {
	if ns > 0 {
		c.AxiomRecheckNs += uint64(ns)
	}
}

// Merge accumulates o's counters into c. The change-point log is not
// merged (it is a per-Runner diagnostic; merging would make totals
// depend on worker interleaving). Merge is commutative and associative
// over the numeric fields, so campaign totals are bit-identical between
// serial and parallel runs over the same seed set.
func (c *EngineCounters) Merge(o *EngineCounters) {
	if c.Model == "" {
		c.Model = o.Model
	}
	c.Trials += o.Trials
	for k := range c.Ops {
		for ord := range c.Ops[k] {
			c.Ops[k][ord] += o.Ops[k][ord]
		}
	}
	c.Handoffs += o.Handoffs
	c.SameThreadGrants += o.SameThreadGrants
	c.RFCandidates.Merge(&o.RFCandidates)
	c.ChangePointDepth.Merge(&o.ChangePointDepth)
	c.RaceChecks += o.RaceChecks
	c.Drains += o.Drains
	c.AxiomRecheckNs += o.AxiomRecheckNs
	c.ExploreRuns += o.ExploreRuns
	c.ExplorePruned += o.ExplorePruned
}

// Events returns the total number of counted events across all kinds and
// orders.
func (c *EngineCounters) Events() uint64 {
	var n uint64
	for k := range c.Ops {
		for ord := range c.Ops[k] {
			n += c.Ops[k][ord]
		}
	}
	return n
}

// EngineSummary is the JSON-facing digest of an EngineCounters. Ops is
// keyed "kind/order" (e.g. "R/rlx") with zero cells omitted;
// encoding/json sorts map keys, so the encoding is deterministic.
type EngineSummary struct {
	Model            string            `json:"model,omitempty"`
	Trials           uint64            `json:"trials"`
	Events           uint64            `json:"events"`
	Ops              map[string]uint64 `json:"ops,omitempty"`
	Handoffs         uint64            `json:"handoffs"`
	SameThreadGrants uint64            `json:"same_thread_grants"`
	RFCandidates     HistSummary       `json:"rf_candidates"`
	ChangePointDepth HistSummary       `json:"change_point_depth"`
	RaceChecks       uint64            `json:"race_checks"`
	Drains           uint64            `json:"drains,omitempty"`
	AxiomRecheckNs   uint64            `json:"axiom_recheck_ns"`
	ExploreRuns      uint64            `json:"explore_runs,omitempty"`
	ExplorePruned    uint64            `json:"explore_pruned,omitempty"`
}

// Summary digests the counters (the change-point log is excluded — it is
// a per-Runner diagnostic, not an aggregate).
func (c *EngineCounters) Summary() EngineSummary {
	s := EngineSummary{
		Model:            c.Model,
		Trials:           c.Trials,
		Events:           c.Events(),
		Handoffs:         c.Handoffs,
		SameThreadGrants: c.SameThreadGrants,
		RFCandidates:     c.RFCandidates.Summary(),
		ChangePointDepth: c.ChangePointDepth.Summary(),
		RaceChecks:       c.RaceChecks,
		Drains:           c.Drains,
		AxiomRecheckNs:   c.AxiomRecheckNs,
		ExploreRuns:      c.ExploreRuns,
		ExplorePruned:    c.ExplorePruned,
	}
	for k := range c.Ops {
		for ord := range c.Ops[k] {
			if n := c.Ops[k][ord]; n > 0 {
				if s.Ops == nil {
					s.Ops = make(map[string]uint64)
				}
				s.Ops[memmodel.Kind(k).String()+"/"+memmodel.Order(ord).String()] += n
			}
		}
	}
	return s
}
