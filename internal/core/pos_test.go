package core

import (
	"testing"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// TestPOSSchedulesAllThreads: over many steps POS schedules every thread.
func TestPOSSchedulesAllThreads(t *testing.T) {
	s := NewPOS()
	begin(s, engine.ProgramInfo{NumRootThreads: 3}, newRng())
	seen := map[memmodel.ThreadID]int{}
	for i := 0; i < 600; i++ {
		en := []engine.PendingOp{
			pending(1, i, memmodel.KindWrite, memmodel.Relaxed),
			pending(2, i, memmodel.KindWrite, memmodel.Relaxed),
			pending(3, i, memmodel.KindRead, memmodel.Relaxed),
		}
		seen[s.NextThread(en)]++
	}
	for tid := memmodel.ThreadID(1); tid <= 3; tid++ {
		if seen[tid] < 100 {
			t.Fatalf("POS scheduling skewed: %v", seen)
		}
	}
}

// TestPOSPriorityStable: the same pending event keeps its priority until
// executed or resampled, so scheduling is not a pure random walk.
func TestPOSPriorityStable(t *testing.T) {
	s := NewPOS()
	begin(s, engine.ProgramInfo{NumRootThreads: 2}, newRng())
	opA := pending(1, 0, memmodel.KindWrite, memmodel.Relaxed)
	opB := pending(2, 0, memmodel.KindFence, memmodel.Acquire) // never conflicts
	first := s.NextThread([]engine.PendingOp{opA, opB})
	if first == 1 {
		// A executed; B's priority must persist: with a fresh event C of
		// lower sampled priority, B eventually wins deterministically
		// given its stored sample. Just check the map retains B.
		if _, ok := s.prio[eventKey{2, 0}]; !ok {
			t.Fatal("pending event lost its priority sample")
		}
	} else {
		if _, ok := s.prio[eventKey{1, 0}]; !ok {
			t.Fatal("pending event lost its priority sample")
		}
	}
}

// TestPOSResamplesConflicts: executing a write resamples same-location
// pending accesses.
func TestPOSResamplesConflicts(t *testing.T) {
	s := NewPOS()
	begin(s, engine.ProgramInfo{NumRootThreads: 2}, newRng())
	w := pending(1, 0, memmodel.KindWrite, memmodel.Relaxed)
	r := pending(2, 0, memmodel.KindRead, memmodel.Relaxed)
	// Force the write to win.
	s.prio[eventKey{1, 0}] = 2.0
	before := s.priority(r)
	if got := s.NextThread([]engine.PendingOp{w, r}); got != 1 {
		t.Fatalf("write should win, got t%d", got)
	}
	after := s.prio[eventKey{2, 0}]
	if after == before {
		t.Fatalf("conflicting read not resampled (%v == %v)", before, after)
	}
}
