package core

import (
	"math/rand"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
	"pctwm/internal/telemetry"
)

// eventKey identifies a (possibly not yet executed) event: the thread and
// its po index. Pending operations expose the same identity, so an event
// delayed by Algorithm 1 is recognized again when its thread resumes.
type eventKey struct {
	tid   memmodel.ThreadID
	index int
}

// pctwmThread is PCTWM's per-thread state, stored densely (index = tid-1)
// so the per-step hot path performs no map operations.
type pctwmThread struct {
	prio   int
	spins  int
	escape bool
	sticky bool
	// lastCounted is the po index of this thread's most recent pending
	// communication event already counted toward kcom; -1 if none. A
	// thread's pending index is monotone, so "op.Index <= lastCounted"
	// is exactly the counted-set membership test of Algorithm 1.
	lastCounted int
	// reorderIdx is the po index of this thread's currently delayed
	// communication event; -1 if none. A thread has at most one pending
	// event, and a delayed event's flag is only consulted while it is
	// still pending, so one index per thread replaces the reorder set.
	reorderIdx int
}

// PCTWM is the paper's Probabilistic Concurrency Testing for Weak Memory
// algorithm (Algorithm 1). It samples an execution with d communication
// relations whose source events lie within history depth h:
//
//   - threads run serially in a random priority order;
//   - the d1…dd-th communication events encountered (indices sampled from
//     [1, kcom]) are delayed by demoting their threads into d reserved
//     low-priority slots, so they execute as late as possible and in tuple
//     order;
//   - a delayed ("reordered") read reads from one of the h mo-maximal
//     legal writes, uniformly (readGlobal); every other read reads from
//     its thread-local view (readLocal).
//
// Priority invariants (the 1/(h·kcom)^d bound of §5.4 assumes them):
//
//   - every live thread's priority is distinct at all times: the high
//     band is a uniformly random rank permutation (OnThreadStart), the
//     d reserved slots 1..d are each taken by at most one delayed thread
//     (one per sampled tuple position), and OnSpin demotes to a fresh
//     strictly-decreasing minimum;
//   - OnThreadStart never produces a priority in the reserved range
//     [1, d]: high-band priorities are ≥ d+1 = highBase;
//   - highestPriority's lowest-index tie-break is therefore unreachable
//     in steady state; it remains only as a deterministic safety net.
type PCTWM struct {
	// Depth is the bug-depth parameter d (number of communication
	// relations to sample).
	Depth int
	// History is the history-depth parameter h (Definition 5).
	History int
	// CommEvents is the estimated number of communication events kcom.
	CommEvents int

	rng *rand.Rand
	// tel is the engine's telemetry shard for the current execution (nil
	// when telemetry is off); change points are logged into it.
	tel *telemetry.EngineCounters

	threads []pctwmThread // index = tid-1
	// sampled holds the d sampled communication-event indices; sampled[k]
	// is the index (in encounter order) of tuple position k+1. d is small,
	// so the per-communication-event lookup is a linear scan.
	sampled   []int
	sampleBuf []int // result buffer for sampleDistinct, reused across runs
	fyScratch []int // Fisher–Yates scratch for sampleDistinct's dense path
	// band lists the threads currently holding high-band priorities in
	// ascending priority order; threads[band[i]-1].prio == highBase + i.
	// Delayed and demoted threads leave the band.
	band     []memmodel.ThreadID
	commSeen int
	minPrio  int
	highBase int
}

// stickyEscapeAfter is the number of livelock notifications for one
// thread after which PCTWM stops restricting that thread's reads
// altogether. §6.2: "the more thread switches and external reads-from
// PCTWM employs to avoid a livelock, the more it approaches naive random
// testing".
const stickyEscapeAfter = 3

// NewPCTWM returns a PCTWM strategy with bug depth d, history depth h and
// an estimate kcom of the number of communication events.
func NewPCTWM(d, h, kcom int) *PCTWM {
	if d < 0 {
		d = 0
	}
	if h < 1 {
		h = 1
	}
	if kcom < 1 {
		kcom = 1
	}
	return &PCTWM{Depth: d, History: h, CommEvents: kcom}
}

// Name implements engine.Strategy.
func (s *PCTWM) Name() string { return "pctwm" }

// Begin samples the d communication-event indices [d1…dd] uniformly from
// [1, kcom] (Algorithm 1, Data).
func (s *PCTWM) Begin(info engine.ProgramInfo, r *rand.Rand) {
	s.rng = r
	s.tel = info.Telemetry
	s.threads = s.threads[:0]
	s.band = s.band[:0]
	s.commSeen = 0
	s.minPrio = 0
	s.highBase = s.Depth + 1
	s.sampleBuf, s.fyScratch = sampleDistinct(r, s.Depth, s.CommEvents, s.sampleBuf, s.fyScratch)
	s.sampled = s.sampleBuf
}

// thread returns the dense state slot for tid, growing the table on
// demand (slots are zeroed and marked unused when grown).
func (s *PCTWM) thread(tid memmodel.ThreadID) *pctwmThread {
	i := int(tid) - 1
	for len(s.threads) <= i {
		s.threads = append(s.threads, pctwmThread{lastCounted: -1, reorderIdx: -1})
	}
	return &s.threads[i]
}

// OnThreadStart gives every new thread a random priority above the d
// reserved slots (Algorithm 1, line 3), distinct from every other live
// thread's: the thread is inserted at a uniformly random rank of the
// high band and the band is renumbered from highBase. Inserting each
// arrival at a uniform rank yields a uniformly random permutation of
// thread ranks without knowing the final thread count up front. Threads
// already delayed or demoted are not in the band and keep their low
// priorities untouched.
func (s *PCTWM) OnThreadStart(tid, _ memmodel.ThreadID) {
	*s.thread(tid) = pctwmThread{lastCounted: -1, reorderIdx: -1}
	at := s.rng.Intn(len(s.band) + 1)
	s.band = bandInsert(s.band, tid, at)
	for i, id := range s.band {
		s.threads[id-1].prio = s.highBase + i
	}
}

// highestPriority returns the index in enabled of the operation whose
// thread has the highest priority. Every enabled thread has been through
// OnThreadStart, so its state slot exists and is indexed directly — no
// grow checks or PendingOp copies on the per-step scan.
func (s *PCTWM) highestPriority(enabled []engine.PendingOp) int {
	best := 0
	bestPrio := s.threads[enabled[0].TID-1].prio
	for i := 1; i < len(enabled); i++ {
		if p := s.threads[enabled[i].TID-1].prio; p > bestPrio {
			best, bestPrio = i, p
		}
	}
	return best
}

// NextThread implements the scheduling loop of Algorithm 1 (lines 2-13):
// repeatedly take the highest-priority enabled thread; when its pending
// event is a communication event whose running index was sampled, demote
// the thread into reserved slot d−k+1 (so the delayed events run as late
// as possible, in tuple order) and pick again. An already-delayed event is
// executed when its thread surfaces again as the highest priority.
func (s *PCTWM) NextThread(enabled []engine.PendingOp) memmodel.ThreadID {
	for {
		op := &enabled[s.highestPriority(enabled)]
		st := &s.threads[op.TID-1]
		if !op.IsCommunicationEvent() || op.Index <= st.lastCounted {
			return op.TID
		}
		st.lastCounted = op.Index
		s.commSeen++
		k := 0
		for i, idx := range s.sampled {
			if idx == s.commSeen {
				k = i + 1
				break
			}
		}
		if k == 0 {
			return op.TID
		}
		// Delay: move the thread into reserved slot d−k+1 and mark the
		// event as a communication sink (lines 9-13). Each tuple position
		// is sampled at most once, so the slot is free; the thread leaves
		// the high band so later thread starts cannot renumber it back up.
		s.band = bandRemove(s.band, op.TID)
		st.prio = s.Depth - k + 1
		st.reorderIdx = op.Index
		if s.tel != nil {
			s.tel.LogChangePoint(telemetry.ChangePoint{
				TID: op.TID, Index: op.Index, Comm: s.commSeen, Slot: s.Depth - k + 1,
			})
		}
		// If this thread was the only enabled one, it must run anyway;
		// the counted guard above returns it on the next iteration.
	}
}

// PickRead implements readLocal / readGlobal (Algorithm 2 lines 9-19):
// reordered events read from one of the h mo-maximal candidates uniformly;
// all other reads take the thread-local view write (Candidates[0]). A
// thread flagged by the livelock heuristic escapes through a fully random
// read once, approaching naive random testing (§6.2).
func (s *PCTWM) PickRead(rc engine.ReadContext) int {
	n := len(rc.Candidates)
	st := s.thread(rc.TID)
	if st.sticky {
		return s.rng.Intn(n)
	}
	if st.escape {
		st.escape = false
		return s.rng.Intn(n)
	}
	if st.reorderIdx == rc.Index {
		h := s.History
		if h > n {
			h = n
		}
		return n - 1 - s.rng.Intn(h)
	}
	return 0
}

// OnEvent implements engine.Strategy. Communication events are counted at
// scheduling time (NextThread), matching Algorithm 1's encounter order.
func (s *PCTWM) OnEvent(*memmodel.Event) {}

// OnSpin demotes a livelocked thread below every priority and lets its
// next read pick any visible write (§6.2: "PCTWM applies a heuristic to
// switch to a random thread when it observes a livelock"). A thread that
// keeps livelocking is released from view-restricted reads entirely,
// degrading gracefully to naive random testing.
func (s *PCTWM) OnSpin(tid memmodel.ThreadID) {
	s.minPrio--
	st := s.thread(tid)
	s.band = bandRemove(s.band, tid)
	st.prio = s.minPrio
	st.escape = true
	st.spins++
	if st.spins >= stickyEscapeAfter {
		st.sticky = true
	}
}
