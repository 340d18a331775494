package core

import (
	"math/rand"
	"testing"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// startThreads begins a fresh run and starts n root threads.
func startPCT(s *PCT, n int, r *rand.Rand) {
	s.Begin(engine.ProgramInfo{NumRootThreads: n}, r)
	for tid := 1; tid <= n; tid++ {
		s.OnThreadStart(memmodel.ThreadID(tid), 0)
	}
}

func startPCTWM(s *PCTWM, n int, r *rand.Rand) {
	s.Begin(engine.ProgramInfo{NumRootThreads: n}, r)
	for tid := 1; tid <= n; tid++ {
		s.OnThreadStart(memmodel.ThreadID(tid), 0)
	}
}

// TestPCTDistinctPriorities: every started thread holds a priority
// distinct from every other's and above the reserved range [1, d].
func TestPCTDistinctPriorities(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 9} {
		s := NewPCT(3, 50)
		r := rand.New(rand.NewSource(11))
		for round := 0; round < 200; round++ {
			startPCT(s, n, r)
			seen := map[int]memmodel.ThreadID{}
			for tid := 1; tid <= n; tid++ {
				p := s.prio[tid-1]
				if p < s.highBase {
					t.Fatalf("n=%d round=%d: t%d priority %d inside the reserved range (highBase %d)", n, round, tid, p, s.highBase)
				}
				if other, dup := seen[p]; dup {
					t.Fatalf("n=%d round=%d: priority collision %d between t%d and t%d", n, round, p, tid, other)
				}
				seen[p] = memmodel.ThreadID(tid)
			}
		}
	}
}

// TestPCTWMDistinctPriorities: same invariant for PCTWM.
func TestPCTWMDistinctPriorities(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 9} {
		s := NewPCTWM(2, 3, 10)
		r := rand.New(rand.NewSource(13))
		for round := 0; round < 200; round++ {
			startPCTWM(s, n, r)
			seen := map[int]memmodel.ThreadID{}
			for tid := 1; tid <= n; tid++ {
				p := s.prio[tid-1]
				if p < s.highBase {
					t.Fatalf("n=%d round=%d: t%d priority %d inside the reserved range (highBase %d)", n, round, tid, p, s.highBase)
				}
				if other, dup := seen[p]; dup {
					t.Fatalf("n=%d round=%d: priority collision %d between t%d and t%d", n, round, p, tid, other)
				}
				seen[p] = memmodel.ThreadID(tid)
			}
		}
	}
}

// TestPCTRankPermutationUniform: inserting each arrival at a uniform
// rank must yield a uniformly random permutation of thread ranks. With 3
// threads there are 6 orderings; each should appear ≈1/6 of the time.
func TestPCTRankPermutationUniform(t *testing.T) {
	s := NewPCT(1, 10)
	r := rand.New(rand.NewSource(42))
	counts := map[[3]int]int{}
	const rounds = 6000
	for round := 0; round < rounds; round++ {
		startPCT(s, 3, r)
		var perm [3]int
		for tid := 1; tid <= 3; tid++ {
			perm[tid-1] = s.prio[tid-1] - s.highBase
		}
		counts[perm]++
	}
	if len(counts) != 6 {
		t.Fatalf("expected all 6 rank permutations, saw %d: %v", len(counts), counts)
	}
	for perm, c := range counts {
		if c < rounds/6-rounds/24 || c > rounds/6+rounds/24 {
			t.Fatalf("rank permutation skewed: %v seen %d times (expect ≈%d): %v", perm, c, rounds/6, counts)
		}
	}
}

// TestPCTDemotedThreadsSurviveLaterStarts: a thread demoted below the
// band (change point or spin) must keep its low priority when later
// thread starts renumber the band.
func TestPCTDemotedThreadsSurviveLaterStarts(t *testing.T) {
	s := NewPCT(3, 50)
	r := rand.New(rand.NewSource(5))
	startPCT(s, 2, r)

	// Change-point demotion of t1.
	s.changeAt = append(s.changeAt[:0], 1)
	s.counter = 0
	s.OnEvent(&memmodel.Event{TID: 1, Label: memmodel.Label{Kind: memmodel.KindWrite, Order: memmodel.Relaxed, Loc: 1}})
	demoted := s.prio[0]
	if demoted >= s.highBase {
		t.Fatalf("change point did not demote t1: %d", demoted)
	}
	s.OnThreadStart(3, 1)
	s.OnThreadStart(4, 1)
	if got := s.prio[0]; got != demoted {
		t.Fatalf("later starts changed the demoted priority: %d -> %d", demoted, got)
	}

	// Spin demotion of t2 survives more starts, and stays distinct.
	s.OnSpin(2)
	spun := s.prio[1]
	if spun >= s.highBase {
		t.Fatalf("OnSpin did not demote t2: %d", spun)
	}
	s.OnThreadStart(5, 1)
	if got := s.prio[1]; got != spun {
		t.Fatalf("later starts changed the spun priority: %d -> %d", spun, got)
	}
	prios := map[int]bool{}
	for tid := memmodel.ThreadID(1); tid <= 5; tid++ {
		p := s.prio[tid-1]
		if prios[p] {
			t.Fatalf("collision after demotions+starts at priority %d", p)
		}
		prios[p] = true
	}
}

// TestPCTWMDelayedThreadSurvivesLaterStarts: a thread delayed into a
// reserved slot must keep it when later thread starts renumber the band.
func TestPCTWMDelayedThreadSurvivesLaterStarts(t *testing.T) {
	s := NewPCTWM(1, 1, 1)
	r := rand.New(rand.NewSource(9))
	startPCTWM(s, 2, r)
	// t2's read is communication event #1, always sampled with kcom=1, d=1.
	s.prio[1] = 1000
	read := engine.PendingOp{TID: 2, Index: 0, Kind: memmodel.KindRead, Order: memmodel.Relaxed, Loc: 1,
		Comm: memmodel.Label{Kind: memmodel.KindRead, Order: memmodel.Relaxed}.IsCommunicationEvent()}
	write := engine.PendingOp{TID: 1, Index: 0, Kind: memmodel.KindWrite, Order: memmodel.Relaxed, Loc: 1}
	if got := s.NextThread([]engine.PendingOp{write, read}); got != 1 {
		t.Fatalf("sampled sink should be delayed, scheduled t%d", got)
	}
	slot := s.prio[1]
	if slot != s.Depth { // reserved slot d−k+1 = 1 with d=1, k=1
		t.Fatalf("delayed thread not in reserved slot: %d", slot)
	}
	s.OnThreadStart(3, 1)
	s.OnThreadStart(4, 1)
	if got := s.prio[1]; got != slot {
		t.Fatalf("later starts moved the delayed thread: %d -> %d", slot, got)
	}
	for tid := memmodel.ThreadID(3); tid <= 4; tid++ {
		if p := s.prio[tid-1]; p <= s.Depth {
			t.Fatalf("new thread t%d landed in the reserved range: %d", tid, p)
		}
	}
}

// TestSampleDistinctDenseAllocs pins the dense path's zero-allocation
// steady state: with reused buffers, the partial Fisher–Yates must not
// allocate (the old implementation called rand.Perm(max) per Begin).
func TestSampleDistinctDenseAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var buf, scratch []int
	buf, scratch = sampleDistinct(r, 40, 50, buf, scratch) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() {
		buf, scratch = sampleDistinct(r, 40, 50, buf, scratch)
	})
	if allocs != 0 {
		t.Fatalf("dense sampleDistinct allocates %v per call in steady state", allocs)
	}
	// Dense-path output is still a valid distinct sample.
	seen := map[int]bool{}
	for _, p := range buf {
		if p < 1 || p > 50 || seen[p] {
			t.Fatalf("dense sample invalid: %v", buf)
		}
		seen[p] = true
	}
	if len(buf) != 40 {
		t.Fatalf("dense sample has %d values, want 40", len(buf))
	}
}

// TestStrategyBeginZeroAllocSteadyState: Begin + thread starts on reused
// PCT/PCTWM values allocate nothing once the tables have grown — the
// distinct-priority band must not reintroduce per-run allocations.
func TestStrategyBeginZeroAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pct := NewPCT(4, 6) // dense change-point sampling: 3 of 6
	startPCT(pct, 4, r) // warm tables
	if allocs := testing.AllocsPerRun(200, func() { startPCT(pct, 4, r) }); allocs != 0 {
		t.Fatalf("PCT Begin+starts allocates %v per run in steady state", allocs)
	}
	pctwm := NewPCTWM(3, 2, 4) // dense comm sampling: 3 of 4
	startPCTWM(pctwm, 4, r)
	if allocs := testing.AllocsPerRun(200, func() { startPCTWM(pctwm, 4, r) }); allocs != 0 {
		t.Fatalf("PCTWM Begin+starts allocates %v per run in steady state", allocs)
	}
}

// TestPCTWMStickyEscape: after stickyEscapeAfter livelock notifications
// a thread's reads become permanently unrestricted (sticky), not just
// one-shot.
func TestPCTWMStickyEscape(t *testing.T) {
	s := NewPCTWM(0, 1, 5)
	r := rand.New(rand.NewSource(21))
	startPCTWM(s, 2, r)
	rc := engine.ReadContext{TID: 1, Index: 7, Loc: 1, Candidates: make([]engine.ReadCandidate, 6)}
	for i := 1; i < stickyEscapeAfter; i++ {
		s.OnSpin(1)
		if s.thread(1).sticky {
			t.Fatalf("sticky after only %d notifications", i)
		}
		s.PickRead(rc) // consume the one-shot escape
	}
	s.OnSpin(1)
	if !s.thread(1).sticky {
		t.Fatalf("not sticky after %d notifications", stickyEscapeAfter)
	}
	// Sticky reads roam every candidate indefinitely — no escape flag to
	// consume, repeated picks stay unrestricted.
	seen := map[int]bool{}
	for i := 0; i < 400; i++ {
		seen[s.PickRead(rc)] = true
	}
	if len(seen) != len(rc.Candidates) {
		t.Fatalf("sticky reads should reach all %d candidates, saw %v", len(rc.Candidates), seen)
	}
	// Other threads are unaffected.
	rc2 := rc
	rc2.TID = 2
	if pick := s.PickRead(rc2); pick != 0 {
		t.Fatalf("sticky escape leaked to t2: pick %d", pick)
	}
}

// TestPCTWMEscapeOneShot: a single livelock notification frees exactly
// one read; the next read is view-restricted again.
func TestPCTWMEscapeOneShot(t *testing.T) {
	s := NewPCTWM(0, 1, 5)
	r := rand.New(rand.NewSource(22))
	startPCTWM(s, 1, r)
	s.OnSpin(1)
	if !s.thread(1).escape {
		t.Fatal("OnSpin must arm the one-shot escape")
	}
	rc := engine.ReadContext{TID: 1, Index: 3, Loc: 1, Candidates: make([]engine.ReadCandidate, 4)}
	s.PickRead(rc) // consumes the escape, whatever it picked
	if s.thread(1).escape {
		t.Fatal("escape must be consumed by the first read")
	}
	for i := 0; i < 10; i++ {
		if pick := s.PickRead(rc); pick != 0 {
			t.Fatalf("read after the escape must be local again, got %d", pick)
		}
	}
}

// TestPCTWMHistoryClampOverflow: a reordered read whose history depth h
// exceeds the candidate count clamps to the candidate count — every
// candidate reachable, no out-of-range index.
func TestPCTWMHistoryClampOverflow(t *testing.T) {
	s := NewPCTWM(1, 10, 1) // h = 10 ≫ candidates
	r := rand.New(rand.NewSource(23))
	startPCTWM(s, 1, r)
	read := engine.PendingOp{TID: 1, Index: 2, Kind: memmodel.KindRead, Order: memmodel.Relaxed, Loc: 1,
		Comm: memmodel.Label{Kind: memmodel.KindRead, Order: memmodel.Relaxed}.IsCommunicationEvent()}
	s.NextThread([]engine.PendingOp{read}) // count + delay + return t1

	rc := engine.ReadContext{TID: 1, Index: 2, Loc: 1, Candidates: make([]engine.ReadCandidate, 3)}
	seen := map[int]bool{}
	for i := 0; i < 300; i++ {
		pick := s.PickRead(rc)
		if pick < 0 || pick >= len(rc.Candidates) {
			t.Fatalf("clamped read out of range: %d", pick)
		}
		seen[pick] = true
	}
	for i := range rc.Candidates {
		if !seen[i] {
			t.Fatalf("h > n clamp should cover all candidates, saw %v", seen)
		}
	}
}
