package engine

import (
	"math/rand"

	"pctwm/internal/memmodel"
	"pctwm/internal/telemetry"
)

// ReadCandidate is one coherence-legal write a read may read from.
type ReadCandidate struct {
	// Stamp is the write's modification-order timestamp.
	Stamp memmodel.TS
	// Value is the value the read would observe.
	Value memmodel.Value
	// Writer is the event id of the write (NoEvent when recording is off
	// for init writes of dynamic locations).
	Writer memmodel.EventID
	// WriterTID is the thread that performed the write.
	WriterTID memmodel.ThreadID
}

// ReadContext describes a read about to execute. Candidates are the
// coherence-legal writes in ascending modification order:
//
//   - Candidates[0] is the thread-local view write — choosing it is the
//     paper's readLocal (Algorithm 2 line 19);
//   - Candidates[len-1] is the mo-maximal write;
//   - choosing uniformly among the last h candidates is readGlobal with
//     history depth h (Algorithm 2 line 12, Definition 5).
type ReadContext struct {
	TID   memmodel.ThreadID
	Index int // po index of the read event
	Loc   memmodel.Loc
	Order memmodel.Order
	// RMWFailure is true when the read is the failure path of a CAS; the
	// candidate list is already filtered to values ≠ expected.
	RMWFailure bool
	Candidates []ReadCandidate
}

// Rand is the random source of a strategy (see ProgramInfo.Rand);
// *rand.Rand implements it.
type Rand interface {
	Intn(n int) int
	Float64() float64
}

// ProgramInfo is the static information handed to a strategy at the start
// of each execution.
type ProgramInfo struct {
	Name string
	// NumRootThreads is the number of threads that exist at the start.
	NumRootThreads int
	// Telemetry is the engine's counter shard for this execution (nil when
	// telemetry is off). Strategies with interesting internal events — the
	// PCTWM priority change points — log into it; like the engine, they
	// must guard every use with a nil check.
	Telemetry *telemetry.EngineCounters
	// Rand is the execution's random source, the only one strategies
	// draw from: the engine's seeded *rand.Rand, or the exhaustive
	// explorer's scripted source, which walks every answer to the draws.
	Rand Rand
}

// Strategy decides scheduling and read behavior for one execution. The
// engine calls Begin exactly once per run, then alternates NextThread /
// PickRead / notification callbacks. Implementations need not be safe for
// concurrent use; the engine serializes all calls.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Begin resets the strategy for a fresh execution drawing from
	// info.Rand. r is not drawn from; the explorer passes nil.
	Begin(info ProgramInfo, r *rand.Rand)
	// NextThread picks the thread to run among the enabled pending
	// operations (sorted by thread id, never empty).
	NextThread(enabled []PendingOp) memmodel.ThreadID
	// PickRead picks the index of the write to read from (see ReadContext).
	PickRead(rc ReadContext) int
	// OnEvent is invoked after each event executes. The pointed-to Event is
	// engine-owned scratch, valid only for the duration of the call;
	// strategies that retain it must copy.
	OnEvent(ev *memmodel.Event)
	// OnThreadStart is invoked when a thread becomes schedulable, including
	// root threads (parent is InitThread for those).
	OnThreadStart(tid, parent memmodel.ThreadID)
	// OnSpin is invoked when tid looks livelocked: it keeps re-reading the
	// same value from the same location (paper §6.2: wait-loop heuristic).
	OnSpin(tid memmodel.ThreadID)
}
