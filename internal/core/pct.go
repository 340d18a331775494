package core

import (
	"math/rand"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// PCT is the paper's weak-memory-aware variant of the classic PCT priority
// scheduler (Burckhardt et al., ASPLOS 2010): threads run in a random
// priority order, priorities drop at d−1 change points sampled uniformly
// among the k program events, and — unlike original PCT, which forces SC —
// reads observe a value selected uniformly at random among the
// coherence-legal visible writes (paper §6, "Implementation": "our
// implementation does not produce only sequentially consistent executions").
//
// Priority invariants (the detection-probability bound of §2.2 assumes
// all of them):
//
//   - every live thread holds a priority distinct from every other's, at
//     all times: the high band is a uniformly random rank permutation
//     (see OnThreadStart), change points demote into per-rank slots
//     d−1 … 1 that fire at most once each, and OnSpin demotes to a fresh
//     strictly-decreasing minimum;
//   - the reserved low range (…, d−1] is never produced by OnThreadStart:
//     high-band priorities are ≥ d+1 = highBase;
//   - NextThread's lowest-tid tie-break is therefore unreachable in
//     steady state; it remains only as a deterministic safety net.
type PCT struct {
	// Depth is the bug-depth parameter d.
	Depth int
	// Events is the estimated number of program events k.
	Events int

	rng *rand.Rand

	prio     []int // index = tid-1
	counter  int   // executed events so far
	changeAt []int // changeAt[rank-1] = event count of change point rank
	// band lists the threads currently holding high-band priorities in
	// ascending priority order; prio[band[i]-1] == highBase + i. Demoted
	// threads leave the band (their slots above keep their values — gaps
	// are harmless, distinctness is what matters).
	band      []memmodel.ThreadID
	sampleBuf []int // scratch for sampleDistinct's dense path
	minPrio   int
	highBase  int
}

// NewPCT returns a PCT strategy with bug depth d and an estimate k of the
// number of program events.
func NewPCT(d, k int) *PCT {
	if d < 1 {
		d = 1
	}
	if k < 1 {
		k = 1
	}
	return &PCT{Depth: d, Events: k}
}

// Name implements engine.Strategy.
func (s *PCT) Name() string { return "pct" }

// Begin implements engine.Strategy.
func (s *PCT) Begin(info engine.ProgramInfo, r *rand.Rand) {
	s.rng = r
	s.prio = s.prio[:0]
	s.band = s.band[:0]
	s.counter = 0
	s.highBase = s.Depth + 1
	s.minPrio = 0
	// Sample d−1 distinct change points from [1, k].
	s.changeAt = s.changeAt[:0]
	if s.Depth > 1 {
		s.changeAt, s.sampleBuf = sampleDistinct(s.rng, s.Depth-1, s.Events, s.changeAt, s.sampleBuf)
	}
}

// sampleDistinct samples n distinct integers from [1, max] (fewer when
// max < n), in random order, appending them to buf[:0]. For sparse
// samples (the common case: n is the bug depth, max the event-count
// estimate) it uses rejection sampling against the small result set; the
// dense case runs a partial Fisher–Yates over scratch, which is grown
// once and reused across runs — the steady state allocates nothing.
// Returns the sample and the (possibly grown) scratch buffer.
func sampleDistinct(r *rand.Rand, n, max int, buf, scratch []int) (pts, scratch2 []int) {
	if n > max {
		n = max
	}
	pts = buf[:0]
	if n == 0 {
		return pts, scratch
	}
	if 2*n >= max {
		// Dense: rejection would thrash. A partial Fisher–Yates over the
		// value range draws exactly n values in O(max) setup + O(n) swaps
		// without the per-call permutation allocation of rand.Perm.
		for cap(scratch) < max {
			scratch = append(scratch[:cap(scratch)], 0)
		}
		scratch = scratch[:max]
		for i := range scratch {
			scratch[i] = i + 1
		}
		for i := 0; i < n; i++ {
			j := i + r.Intn(max-i)
			scratch[i], scratch[j] = scratch[j], scratch[i]
			pts = append(pts, scratch[i])
		}
		return pts, scratch
	}
	for len(pts) < n {
		v := r.Intn(max) + 1
		dup := false
		for _, p := range pts {
			if p == v {
				dup = true
				break
			}
		}
		if !dup {
			pts = append(pts, v)
		}
	}
	return pts, scratch
}

// bandInsert inserts tid at position at (0 ≤ at ≤ len(band)), shifting
// higher entries up. The slice is reused across runs; steady state
// performs no allocations once it has grown to the program's thread count.
func bandInsert(band []memmodel.ThreadID, tid memmodel.ThreadID, at int) []memmodel.ThreadID {
	band = append(band, 0)
	copy(band[at+1:], band[at:])
	band[at] = tid
	return band
}

// bandRemove removes tid from the band, preserving the relative order of
// the remaining threads; a tid not in the band is a no-op.
func bandRemove(band []memmodel.ThreadID, tid memmodel.ThreadID) []memmodel.ThreadID {
	for i, id := range band {
		if id == tid {
			copy(band[i:], band[i+1:])
			return band[:len(band)-1]
		}
	}
	return band
}

// priority returns a pointer to tid's priority slot, growing the dense
// table on demand.
func (s *PCT) priority(tid memmodel.ThreadID) *int {
	i := int(tid) - 1
	for len(s.prio) <= i {
		s.prio = append(s.prio, 0)
	}
	return &s.prio[i]
}

// OnThreadStart assigns a fresh high priority, distinct from every other
// live thread's: the new thread is inserted at a uniformly random rank of
// the high band and the band is renumbered from highBase. Inserting each
// arrival at a uniform rank yields a uniformly random permutation of
// thread ranks — exactly the "random distinct priorities" the PCT bound
// assumes — without knowing the final thread count up front. Threads
// already demoted below the band (change points, OnSpin) are not in the
// band and keep their low priorities untouched.
func (s *PCT) OnThreadStart(tid, _ memmodel.ThreadID) {
	at := s.rng.Intn(len(s.band) + 1)
	s.band = bandInsert(s.band, tid, at)
	s.priority(tid) // grow the dense table before renumbering
	for i, id := range s.band {
		s.prio[id-1] = s.highBase + i
	}
}

// NextThread runs the highest-priority enabled thread. The strict '>'
// keeps the scan deterministic (lowest tid first on equal priorities);
// with distinct priorities the tie-break never fires.
func (s *PCT) NextThread(enabled []engine.PendingOp) memmodel.ThreadID {
	best := enabled[0].TID
	bestPrio := *s.priority(best)
	for _, op := range enabled[1:] {
		if p := *s.priority(op.TID); p > bestPrio {
			best, bestPrio = op.TID, p
		}
	}
	return best
}

// PickRead observes a value selected uniformly among the legal candidates
// (the weak-memory behavior of the paper's PCT variant).
func (s *PCT) PickRead(rc engine.ReadContext) int {
	return s.rng.Intn(len(rc.Candidates))
}

// OnEvent advances the event counter and applies priority change points.
func (s *PCT) OnEvent(ev *memmodel.Event) {
	if !ev.Label.Kind.IsMemoryAccess() && ev.Label.Kind != memmodel.KindFence {
		return
	}
	s.counter++
	for i, p := range s.changeAt {
		if p == s.counter {
			// Drop the current thread's priority to d − rank, below every
			// initial priority; later change points sit lower still. Each
			// rank fires at most once, so the slots stay distinct. The
			// thread leaves the high band — later thread starts must not
			// renumber it back up.
			s.band = bandRemove(s.band, ev.TID)
			*s.priority(ev.TID) = s.Depth - (i + 1)
			break
		}
	}
}

// OnSpin demotes a livelocked thread below every other priority so the
// rest of the system can make progress (the starvation heuristic of the
// original PCT, §6.2). minPrio decreases monotonically, so repeated
// spins keep priorities distinct.
func (s *PCT) OnSpin(tid memmodel.ThreadID) {
	s.minPrio--
	s.band = bandRemove(s.band, tid)
	*s.priority(tid) = s.minPrio
}
