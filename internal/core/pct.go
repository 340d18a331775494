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
// Change points demote into the reserved slots d−1 … 1 of priorities.
type PCT struct {
	// Depth is the bug-depth parameter d.
	Depth int
	// Events is the estimated number of program events k.
	Events int

	rng engine.Rand
	priorities
	counter   int   // executed events so far
	changeAt  []int // changeAt[rank-1] = event count of change point rank
	sampleBuf []int // scratch for sampleDistinct's dense path
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
func (s *PCT) Begin(info engine.ProgramInfo, _ *rand.Rand) {
	s.rng = info.Rand
	s.reset(s.Depth)
	s.counter = 0
	// Sample d−1 distinct change points from [1, k] (none, and no draw,
	// at d = 1).
	s.changeAt, s.sampleBuf = sampleDistinct(s.rng, s.Depth-1, s.Events, s.changeAt, s.sampleBuf)
}

// exhaustive is implemented by a source that walks every answer to its
// draws: the explorer's scripted source (internal/enumerate).
type exhaustive interface{ Exhaustive() }

// sampleDistinct samples n distinct integers from [1, max] (fewer when
// max < n), in random order, appending them to buf[:0]. For sparse
// samples (the common case: n is the bug depth, max the event-count
// estimate) it uses rejection sampling against the small result set; the
// dense case runs a partial Fisher–Yates over scratch, which is grown
// once and reused across runs — the steady state allocates nothing.
// Returns the sample and the (possibly grown) scratch buffer.
//
// Under an exhaustive source every sample takes the Fisher–Yates path:
// rejection has no finite tree of answers, while Fisher–Yates draws of
// arity max, max−1, … give the same uniform distribution.
func sampleDistinct(r engine.Rand, n, max int, buf, scratch []int) (pts, scratch2 []int) {
	if n > max {
		n = max
	}
	pts = buf[:0]
	if n == 0 {
		return pts, scratch
	}
	if _, walked := r.(exhaustive); walked || 2*n >= max {
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

// OnThreadStart gives tid a random distinct priority above the reserved
// slots (see priorities.start).
func (s *PCT) OnThreadStart(tid, _ memmodel.ThreadID) { s.start(s.rng, tid) }

// NextThread runs the highest-priority enabled thread.
func (s *PCT) NextThread(enabled []engine.PendingOp) memmodel.ThreadID {
	return enabled[s.highest(enabled)].TID
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
			// rank fires at most once, so the slots stay distinct.
			s.move(ev.TID, s.Depth-(i+1))
			break
		}
	}
}

// OnSpin demotes a livelocked thread below every other priority so the
// rest of the system can make progress (the starvation heuristic of the
// original PCT, §6.2).
func (s *PCT) OnSpin(tid memmodel.ThreadID) { s.spin(tid) }
