package core

import (
	"testing"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

func TestAblationNames(t *testing.T) {
	want := map[Ablation]string{
		AblateNone:       "pctwm",
		AblateHistory:    "pctwm-nohistory",
		AblateDelay:      "pctwm-nodelay",
		AblateLocalViews: "pctwm-nolocalviews",
	}
	for m, name := range want {
		if got := NewAblatedPCTWM(1, 1, 5, m).Name(); got != name {
			t.Errorf("Name(%v) = %q, want %q", m, got, name)
		}
	}
	if Ablation(99).String() != "pctwm-unknown" {
		t.Error("unknown ablation string")
	}
}

// TestAblateDelayKeepsPriority: the sampled sink's thread is not demoted
// and runs immediately.
func TestAblateDelayKeepsPriority(t *testing.T) {
	s := NewAblatedPCTWM(1, 1, 1, AblateDelay)
	s.Begin(engine.ProgramInfo{NumRootThreads: 2}, newRng())
	s.OnThreadStart(1, 0)
	s.OnThreadStart(2, 0)
	s.prio[1] = 1000
	read := pending(2, 0, memmodel.KindRead, memmodel.Relaxed)
	write := pending(1, 0, memmodel.KindWrite, memmodel.Relaxed)
	if got := s.NextThread([]engine.PendingOp{write, read}); got != 2 {
		t.Fatalf("no-delay must schedule the sink immediately, got t%d", got)
	}
	if s.prio[1] != 1000 {
		t.Fatalf("no-delay must not demote: prio[2]=%d", s.prio[1])
	}
	// The sink is still reordered: its read goes global.
	rc := engine.ReadContext{TID: 2, Index: 0, Loc: 1, Candidates: make([]engine.ReadCandidate, 3)}
	if pick := s.PickRead(rc); pick != 2 {
		t.Fatalf("sink read should be global (mo-max), got %d", pick)
	}
}

// TestAblateHistoryUnbounded: sink reads roam all candidates.
func TestAblateHistoryUnbounded(t *testing.T) {
	s := NewAblatedPCTWM(1, 1, 1, AblateHistory)
	s.Begin(engine.ProgramInfo{NumRootThreads: 1}, newRng())
	s.OnThreadStart(1, 0)
	read := pending(1, 0, memmodel.KindRead, memmodel.Relaxed)
	s.NextThread([]engine.PendingOp{read})
	rc := engine.ReadContext{TID: 1, Index: 0, Loc: 1, Candidates: make([]engine.ReadCandidate, 6)}
	seen := map[int]bool{}
	for i := 0; i < 300; i++ {
		seen[s.PickRead(rc)] = true
	}
	if len(seen) < 4 {
		t.Fatalf("unbounded history should roam, saw %v", seen)
	}
	// Non-sink reads stay local.
	rc2 := engine.ReadContext{TID: 1, Index: 7, Loc: 1, Candidates: make([]engine.ReadCandidate, 6)}
	if pick := s.PickRead(rc2); pick != 0 {
		t.Fatalf("non-sink read must stay local, got %d", pick)
	}
}

// TestAblateLocalViewsRandomReads: non-sink reads are uniform.
func TestAblateLocalViewsRandomReads(t *testing.T) {
	s := NewAblatedPCTWM(0, 1, 5, AblateLocalViews)
	s.Begin(engine.ProgramInfo{NumRootThreads: 1}, newRng())
	s.OnThreadStart(1, 0)
	rc := engine.ReadContext{TID: 1, Index: 3, Loc: 1, Candidates: make([]engine.ReadCandidate, 5)}
	seen := map[int]bool{}
	for i := 0; i < 300; i++ {
		seen[s.PickRead(rc)] = true
	}
	if len(seen) < 3 {
		t.Fatalf("no-local-views reads should be uniform, saw %v", seen)
	}
}
