package core

import (
	"math/rand"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
	"pctwm/internal/telemetry"
)

// pctwmThread is PCTWM's per-thread state, stored densely (index = tid-1)
// so the per-step hot path performs no map operations.
type pctwmThread struct {
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
// Delays demote into the reserved slots d … 1 of priorities.
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

	priorities
	threads []pctwmThread // index = tid-1
	// sampled holds the d sampled communication-event indices; sampled[k]
	// is the index (in encounter order) of tuple position k+1. d is small,
	// so the per-communication-event lookup is a linear scan.
	sampled   []int
	fyScratch []int // Fisher–Yates scratch for sampleDistinct's dense path
	commSeen  int
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
	s.reset(s.Depth)
	s.threads = s.threads[:0]
	s.commSeen = 0
	s.sampled, s.fyScratch = sampleDistinct(r, s.Depth, s.CommEvents, s.sampled, s.fyScratch)
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

// OnThreadStart gives every new thread a random distinct priority above
// the d reserved slots (Algorithm 1, line 3; see priorities.start).
func (s *PCTWM) OnThreadStart(tid, _ memmodel.ThreadID) {
	*s.thread(tid) = pctwmThread{lastCounted: -1, reorderIdx: -1}
	s.start(s.rng, tid)
}

// encounter counts op toward kcom if it is a communication event not
// counted before (Algorithm 1, lines 6-8) and returns its position k in
// the sampled tuple, or 0 when it is not a sampled sink.
func (s *PCTWM) encounter(op *engine.PendingOp) int {
	st := &s.threads[op.TID-1]
	if !op.IsCommunicationEvent() || op.Index <= st.lastCounted {
		return 0
	}
	st.lastCounted = op.Index
	s.commSeen++
	for i, idx := range s.sampled {
		if idx == s.commSeen {
			return i + 1
		}
	}
	return 0
}

// NextThread implements the scheduling loop of Algorithm 1 (lines 2-13):
// repeatedly take the highest-priority enabled thread; when its pending
// event is a communication event whose running index was sampled, demote
// the thread into reserved slot d−k+1 (so the delayed events run as late
// as possible, in tuple order) and pick again. An already-delayed event is
// executed when its thread surfaces again as the highest priority: it was
// counted, so encounter returns 0.
func (s *PCTWM) NextThread(enabled []engine.PendingOp) memmodel.ThreadID {
	for {
		op := &enabled[s.highest(enabled)]
		k := s.encounter(op)
		if k == 0 {
			return op.TID
		}
		// Delay: mark the event as a communication sink and move the
		// thread into reserved slot d−k+1 (lines 9-13). Each tuple
		// position is sampled at most once, so the slot is free.
		slot := s.Depth - k + 1
		s.threads[op.TID-1].reorderIdx = op.Index
		s.move(op.TID, slot)
		if s.tel != nil {
			s.tel.LogChangePoint(telemetry.ChangePoint{
				TID: op.TID, Index: op.Index, Comm: s.commSeen, Slot: slot,
			})
		}
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
	s.spin(tid)
	st := s.thread(tid)
	st.escape = true
	st.spins++
	if st.spins >= stickyEscapeAfter {
		st.sticky = true
	}
}
