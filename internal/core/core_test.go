package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

func pending(tid memmodel.ThreadID, index int, kind memmodel.Kind, ord memmodel.Order) engine.PendingOp {
	return engine.PendingOp{
		TID: tid, Index: index, Kind: kind, Order: ord, Loc: 1,
		Comm: memmodel.Label{Kind: kind, Order: ord}.IsCommunicationEvent(),
	}
}

func newRng() *rand.Rand { return rand.New(rand.NewSource(7)) }

// begin starts a run of s with r as its random source, as the engine
// does: strategies draw from info.Rand.
func begin(s engine.Strategy, info engine.ProgramInfo, r *rand.Rand) {
	info.Rand = r
	s.Begin(info, r)
}

// TestPCTWMDelaysSampledCommEvent: with kcom=1 and d=1, the first
// communication event's thread must be demoted below all others and its
// read must go through readGlobal.
func TestPCTWMDelaysSampledCommEvent(t *testing.T) {
	s := NewPCTWM(1, 1, 1)
	begin(s, engine.ProgramInfo{Name: "t", NumRootThreads: 2}, newRng())
	s.OnThreadStart(1, 0)
	s.OnThreadStart(2, 0)

	// Thread 1 pends a write (not a communication event), thread 2 pends
	// a read (communication event #1 when encountered as the choice).
	write := pending(1, 0, memmodel.KindWrite, memmodel.Relaxed)
	read := pending(2, 0, memmodel.KindRead, memmodel.Relaxed)

	// Force thread 2 to be the highest priority so its read is counted.
	s.prio[1] = 1000
	got := s.NextThread([]engine.PendingOp{write, read})
	if got != 1 {
		t.Fatalf("sampled sink's thread must be demoted; scheduled t%d", got)
	}
	if s.prio[1] >= s.prio[0] {
		t.Fatalf("demotion failed: prio[2]=%d prio[1]=%d", s.prio[1], s.prio[0])
	}

	// When only the delayed thread remains, it must run (counted guard).
	got = s.NextThread([]engine.PendingOp{read})
	if got != 2 {
		t.Fatalf("delayed thread must eventually run, got t%d", got)
	}

	// Its read is reordered: with h=1 it reads the mo-maximal candidate.
	rc := engine.ReadContext{TID: 2, Index: 0, Loc: 1, Candidates: make([]engine.ReadCandidate, 4)}
	if pick := s.PickRead(rc); pick != 3 {
		t.Fatalf("reordered read should pick mo-max (3), got %d", pick)
	}
}

// TestPCTWMLocalReadsByDefault: non-reordered reads take the thread-local
// view (candidate 0).
func TestPCTWMLocalReadsByDefault(t *testing.T) {
	s := NewPCTWM(0, 3, 10)
	begin(s, engine.ProgramInfo{NumRootThreads: 2}, newRng())
	s.OnThreadStart(1, 0)
	rc := engine.ReadContext{TID: 1, Index: 5, Loc: 1, Candidates: make([]engine.ReadCandidate, 6)}
	for i := 0; i < 10; i++ {
		if pick := s.PickRead(rc); pick != 0 {
			t.Fatalf("default read must be local, got %d", pick)
		}
	}
}

// TestPCTWMHistoryWindow: a reordered read with history depth h picks
// uniformly among the h mo-maximal candidates.
func TestPCTWMHistoryWindow(t *testing.T) {
	s := NewPCTWM(1, 2, 1)
	begin(s, engine.ProgramInfo{NumRootThreads: 1}, newRng())
	s.OnThreadStart(1, 0)
	read := pending(1, 3, memmodel.KindRead, memmodel.Relaxed)
	s.NextThread([]engine.PendingOp{read}) // counts + demotes + returns t1

	rc := engine.ReadContext{TID: 1, Index: 3, Loc: 1, Candidates: make([]engine.ReadCandidate, 5)}
	counts := map[int]int{}
	for i := 0; i < 2000; i++ {
		counts[s.PickRead(rc)]++
	}
	if counts[4] == 0 || counts[3] == 0 {
		t.Fatalf("h=2 should cover the top two candidates: %v", counts)
	}
	if counts[0] > 0 || counts[1] > 0 || counts[2] > 0 {
		t.Fatalf("h=2 must not reach older candidates: %v", counts)
	}
	ratio := float64(counts[4]) / float64(counts[3])
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("top-2 picks should be uniform, got %v", counts)
	}
}

// TestPCTWMSpinEscape: after OnSpin the thread's next read is unrestricted
// and the thread is demoted.
func TestPCTWMSpinEscape(t *testing.T) {
	s := NewPCTWM(0, 1, 5)
	begin(s, engine.ProgramInfo{NumRootThreads: 2}, newRng())
	s.OnThreadStart(1, 0)
	s.OnThreadStart(2, 0)
	before := s.prio[0]
	s.OnSpin(1)
	if s.prio[0] >= before {
		t.Fatal("OnSpin must demote the spinner")
	}
	rc := engine.ReadContext{TID: 1, Index: 9, Loc: 1, Candidates: make([]engine.ReadCandidate, 8)}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		s.thread(1).escape = true
		seen[s.PickRead(rc)] = true
	}
	if len(seen) < 4 {
		t.Fatalf("escape reads should roam all candidates, saw %v", seen)
	}
	// The escape is one-shot.
	s.thread(1).escape = false
	if pick := s.PickRead(rc); pick != 0 {
		t.Fatalf("after the escape, reads are local again; got %d", pick)
	}
}

// TestPCTWMCountsEventsOnce: re-encountering the same pending event must
// not advance the communication counter.
func TestPCTWMCountsEventsOnce(t *testing.T) {
	s := NewPCTWM(2, 1, 10)
	begin(s, engine.ProgramInfo{NumRootThreads: 1}, newRng())
	s.OnThreadStart(1, 0)
	read := pending(1, 0, memmodel.KindRead, memmodel.Relaxed)
	s.NextThread([]engine.PendingOp{read})
	n := s.commSeen
	s.NextThread([]engine.PendingOp{read})
	if s.commSeen != n {
		t.Fatalf("comm counter advanced on re-encounter: %d -> %d", n, s.commSeen)
	}
}

// TestPCTPriorities: the PCT scheduler always runs the highest-priority
// enabled thread, and change points drop the running thread's priority.
func TestPCTPriorities(t *testing.T) {
	s := NewPCT(2, 10)
	begin(s, engine.ProgramInfo{NumRootThreads: 2}, newRng())
	s.OnThreadStart(1, 0)
	s.OnThreadStart(2, 0)
	s.prio[0], s.prio[1] = 50, 40
	en := []engine.PendingOp{
		pending(1, 0, memmodel.KindWrite, memmodel.Relaxed),
		pending(2, 0, memmodel.KindWrite, memmodel.Relaxed),
	}
	if got := s.NextThread(en); got != 1 {
		t.Fatalf("highest priority must run, got t%d", got)
	}
	// Force the single change point (d=2 → 1 change point) to fire now.
	s.changeAt = []int{1}
	s.counter = 0
	s.OnEvent(&memmodel.Event{TID: 1, Label: memmodel.Label{Kind: memmodel.KindWrite, Order: memmodel.Relaxed, Loc: 1}})
	if s.prio[0] >= s.prio[1] {
		t.Fatalf("change point must demote the running thread: %v", s.prio)
	}
	if got := s.NextThread(en); got != 2 {
		t.Fatalf("after the change point t2 must run, got t%d", got)
	}
}

// TestPCTIgnoresNonMemoryEvents: spawn/join/assert events do not advance
// the PCT counter.
func TestPCTIgnoresNonMemoryEvents(t *testing.T) {
	s := NewPCT(3, 10)
	begin(s, engine.ProgramInfo{NumRootThreads: 1}, newRng())
	s.OnThreadStart(1, 0)
	for _, k := range []memmodel.Kind{memmodel.KindSpawn, memmodel.KindJoin, memmodel.KindAssert} {
		s.OnEvent(&memmodel.Event{TID: 1, Label: memmodel.Label{Kind: k}})
	}
	if s.counter != 0 {
		t.Fatalf("counter advanced on non-memory events: %d", s.counter)
	}
}

// TestSampleDistinct: the sampled values are distinct, in range, and the
// whole range is reachable.
func TestSampleDistinct(t *testing.T) {
	prop := func(seed int64, nRaw, maxRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%6) + 1
		max := int(maxRaw%10) + 1
		pts, _ := sampleDistinct(r, n, max, nil, nil)
		if len(pts) > max || (n <= max && len(pts) != n) {
			return false
		}
		seen := map[int]bool{}
		for _, p := range pts {
			if p < 1 || p > max || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBounds checks the §2.2 and §5.4 probability formulas.
func TestBounds(t *testing.T) {
	if got := PCTBound(2, 10, 1); got != 0.5 {
		t.Fatalf("PCTBound(2,10,1) = %v, want 0.5 (depth-1 bugs need only the thread order)", got)
	}
	if got := PCTBound(2, 10, 2); got != 1.0/20 {
		t.Fatalf("PCTBound(2,10,2) = %v", got)
	}
	if got := PCTWMBound(10, 0, 4); got != 1 {
		t.Fatalf("PCTWMBound d=0 must be 1, got %v", got)
	}
	if got := PCTWMBound(10, 2, 2); math.Abs(got-1.0/400) > 1e-12 {
		t.Fatalf("PCTWMBound(10,2,2) = %v", got)
	}
	if PCTBound(0, 1, 1) != 0 || PCTWMBound(0, 1, 1) != 0 {
		t.Fatal("degenerate inputs must give 0")
	}
	// Monotonicity: deeper bugs and larger programs have lower bounds.
	prop := func(kRaw, dRaw, hRaw uint8) bool {
		k := int(kRaw%50) + 2
		d := int(dRaw%4) + 1
		h := int(hRaw%4) + 1
		return PCTWMBound(k, d+1, h) <= PCTWMBound(k, d, h) &&
			PCTWMBound(k+1, d, h) <= PCTWMBound(k, d, h) &&
			PCTWMBound(k, d, h+1) <= PCTWMBound(k, d, h) &&
			PCTBound(2, k+1, d) <= PCTBound(2, k, d)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomStrategyUniform: the baseline picks all threads and all read
// candidates with positive frequency.
func TestRandomStrategyUniform(t *testing.T) {
	s := NewRandom()
	begin(s, engine.ProgramInfo{NumRootThreads: 3}, newRng())
	en := []engine.PendingOp{
		pending(1, 0, memmodel.KindWrite, memmodel.Relaxed),
		pending(2, 0, memmodel.KindWrite, memmodel.Relaxed),
		pending(3, 0, memmodel.KindWrite, memmodel.Relaxed),
	}
	tids := map[memmodel.ThreadID]int{}
	for i := 0; i < 600; i++ {
		tids[s.NextThread(en)]++
	}
	for tid := memmodel.ThreadID(1); tid <= 3; tid++ {
		if tids[tid] < 100 {
			t.Fatalf("thread choice skewed: %v", tids)
		}
	}
	rc := engine.ReadContext{Candidates: make([]engine.ReadCandidate, 4)}
	picks := map[int]int{}
	for i := 0; i < 800; i++ {
		picks[s.PickRead(rc)]++
	}
	for i := 0; i < 4; i++ {
		if picks[i] < 100 {
			t.Fatalf("read choice skewed: %v", picks)
		}
	}
}
