package engine

import (
	"math/rand"
	"testing"

	"pctwm/internal/memmodel"
	"pctwm/internal/telemetry"
)

// orderStrategy drives a scripted interleaving: NextThread follows tids
// (falling back to the first enabled op when the scripted thread is not
// runnable), and PickRead consumes picks per read with a choice
// (-1 = last candidate; exhausted script = candidate 0).
type orderStrategy struct {
	tids  []memmodel.ThreadID
	picks []int
	step  int
	pick  int
}

func (s *orderStrategy) Name() string                         { return "order" }
func (s *orderStrategy) Begin(ProgramInfo, *rand.Rand)        { s.step, s.pick = 0, 0 }
func (s *orderStrategy) OnThreadStart(_, _ memmodel.ThreadID) {}
func (s *orderStrategy) OnEvent(ev *memmodel.Event)           {}
func (s *orderStrategy) OnSpin(tid memmodel.ThreadID)         {}

func (s *orderStrategy) NextThread(en []PendingOp) memmodel.ThreadID {
	if s.step < len(s.tids) {
		want := s.tids[s.step]
		s.step++
		for _, op := range en {
			if op.TID == want {
				return want
			}
		}
	}
	return en[0].TID
}

func (s *orderStrategy) PickRead(rc ReadContext) int {
	p := 0
	if s.pick < len(s.picks) {
		p = s.picks[s.pick]
		s.pick++
	}
	if p < 0 || p >= len(rc.Candidates) {
		return len(rc.Candidates) - 1
	}
	return p
}

// sbProgram is store buffering: both threads store their flag, then read
// the other's. AddThread order gives the threads TIDs 1 and 2.
func sbProgram(ord memmodel.Order) *Program {
	p := NewProgram("sb-model")
	x := p.Loc("X", 0)
	y := p.Loc("Y", 0)
	a := p.Loc("a", -1)
	b := p.Loc("b", -1)
	p.AddThread(func(th *Thread) {
		th.Store(x, 1, ord)
		th.Store(a, th.Load(y, memmodel.Relaxed), memmodel.NonAtomic)
	})
	p.AddThread(func(th *Thread) {
		th.Store(y, 1, ord)
		th.Store(b, th.Load(x, memmodel.Relaxed), memmodel.NonAtomic)
	})
	return p
}

// sbSchedule alternates the threads so both loads run while the other
// thread's store can still sit in its buffer (neither thread finishes —
// and drains — before the loads): the only way to reach a=b=0 on a
// machine with store buffers, and provably too late for it on one
// without.
var sbSchedule = []memmodel.ThreadID{1, 2, 1, 2, 1, 2}

// TestModelSBDifferential runs the same store-buffering interleaving
// under all three backends with memory-copy reads (pick 0): tso and rc11
// exhibit a=b=0, sc cannot.
func TestModelSBDifferential(t *testing.T) {
	for _, tc := range []struct {
		model string
		weak  bool
	}{
		{ModelSC, false},
		{ModelTSO, true},
		{ModelRC11, true},
	} {
		o := Run(sbProgram(memmodel.Relaxed), &orderStrategy{tids: sbSchedule}, 1, Options{Model: tc.model})
		gotWeak := o.FinalValues["a"] == 0 && o.FinalValues["b"] == 0
		if gotWeak != tc.weak {
			t.Errorf("%s: a=%d b=%d, want weak=%v", tc.model, o.FinalValues["a"], o.FinalValues["b"], tc.weak)
		}
	}
}

// TestTSOStoreForwarding: a load after the thread's own buffered store
// must return the buffered value (x86 forwarding is mandatory, the
// strategy is not consulted), while another thread still reads the stale
// shared copy.
func TestTSOStoreForwarding(t *testing.T) {
	p := NewProgram("forward")
	x := p.Loc("X", 0)
	a := p.Loc("a", -1)
	b := p.Loc("b", -1)
	p.AddThread(func(th *Thread) {
		th.Store(x, 1, memmodel.Relaxed)
		th.Store(a, th.Load(x, memmodel.Relaxed), memmodel.NonAtomic)
		th.Load(x, memmodel.Relaxed) // keep the thread alive past T2's read
	})
	p.AddThread(func(th *Thread) {
		th.Store(b, th.Load(x, memmodel.Relaxed), memmodel.NonAtomic)
	})
	// T1 stores and reads back, then T2 reads while T1's store is still
	// buffered (T1 has not finished, so no drain has happened).
	s := &orderStrategy{tids: []memmodel.ThreadID{1, 1, 1, 2, 2}}
	o := Run(p, s, 1, Options{Model: ModelTSO})
	if o.FinalValues["a"] != 1 {
		t.Errorf("own read must forward from the store buffer: a=%d, want 1", o.FinalValues["a"])
	}
	if o.FinalValues["b"] != 0 {
		t.Errorf("remote read picked the shared copy: b=%d, want stale 0", o.FinalValues["b"])
	}
}

// TestTSOSCStoreDrains: mapping an SC store to MOV+MFENCE makes it
// immediately visible — the same schedule that hides a relaxed store
// cannot hide an SC one.
func TestTSOSCStoreDrains(t *testing.T) {
	for _, tc := range []struct {
		ord  memmodel.Order
		want memmodel.Value
	}{
		{memmodel.Relaxed, 0},
		{memmodel.SeqCst, 1},
	} {
		p := NewProgram("sc-store")
		x := p.Loc("X", 0)
		b := p.Loc("b", -1)
		p.AddThread(func(th *Thread) {
			th.Store(x, 1, tc.ord)
			th.Load(x, memmodel.Relaxed) // keep T1 unfinished during T2's read
		})
		p.AddThread(func(th *Thread) {
			th.Store(b, th.Load(x, memmodel.Relaxed), memmodel.NonAtomic)
		})
		s := &orderStrategy{tids: []memmodel.ThreadID{1, 2, 2}}
		o := Run(p, s, 1, Options{Model: ModelTSO})
		if o.FinalValues["b"] != tc.want {
			t.Errorf("%v store: b=%d, want %d", tc.ord, o.FinalValues["b"], tc.want)
		}
	}
}

// TestTSODrainThroughFIFO: observing a remote buffered store commits its
// owner's FIFO prefix first, so message passing cannot deliver the flag
// without the payload.
func TestTSODrainThroughFIFO(t *testing.T) {
	p := NewProgram("mp-fifo")
	x := p.Loc("X", 0)
	y := p.Loc("Y", 0)
	r1 := p.Loc("r1", -1)
	r2 := p.Loc("r2", -1)
	p.AddThread(func(th *Thread) {
		th.Store(x, 7, memmodel.Relaxed) // payload, buffered first
		th.Store(y, 1, memmodel.Relaxed) // flag, buffered second
		th.Load(x, memmodel.Relaxed)     // keep T1 unfinished during T2's reads
	})
	p.AddThread(func(th *Thread) {
		th.Store(r1, th.Load(y, memmodel.Relaxed), memmodel.NonAtomic)
		th.Store(r2, th.Load(x, memmodel.Relaxed), memmodel.NonAtomic)
	})
	// T2's flag read picks the buffered remote store (candidate 1: memory
	// copy is candidate 0); the payload read then picks candidate 0, which
	// must already be 7 because the flag's drain-through flushed it.
	s := &orderStrategy{tids: []memmodel.ThreadID{1, 1, 2, 2, 2, 2}, picks: []int{-1, 0}}
	o := Run(p, s, 1, Options{Model: ModelTSO})
	if o.FinalValues["r1"] != 1 {
		t.Fatalf("flag read did not observe the buffered store: r1=%d", o.FinalValues["r1"])
	}
	if o.FinalValues["r2"] != 7 {
		t.Errorf("FIFO drain-through must commit the payload before the flag: r2=%d, want 7", o.FinalValues["r2"])
	}
}

// TestModelTelemetryTagging: the engine stamps the model on its counters,
// and Drains counts buffered-store flushes only under tso.
func TestModelTelemetryTagging(t *testing.T) {
	for _, model := range Models() {
		tel := &telemetry.EngineCounters{}
		Run(sbProgram(memmodel.Relaxed), &orderStrategy{tids: sbSchedule}, 1, Options{Model: model, Telemetry: tel})
		if tel.Model != model {
			t.Errorf("counters stamped %q, want %q", tel.Model, model)
		}
		if model == ModelTSO && tel.Drains == 0 {
			t.Errorf("tso run flushed no buffered stores")
		}
		if model != ModelTSO && tel.Drains != 0 {
			t.Errorf("%s run counted %d drains, want 0", model, tel.Drains)
		}
	}
}

// TestSCReadsAreSingular: under sc every load has exactly one candidate,
// so a strategy's PickRead is never consulted — a panicking picker proves
// it.
func TestSCReadsAreSingular(t *testing.T) {
	s := &panicPickStrategy{}
	o := Run(sbProgram(memmodel.Relaxed), s, 1, Options{Model: ModelSC})
	if o.FinalValues["a"] == 0 && o.FinalValues["b"] == 0 {
		t.Fatalf("sc reached the store-buffering outcome: %v", o.FinalValues)
	}
}

// panicPickStrategy runs threads in pending order and panics if PickRead
// is ever called.
type panicPickStrategy struct{}

func (panicPickStrategy) Name() string                         { return "panic-pick" }
func (panicPickStrategy) Begin(ProgramInfo, *rand.Rand)        {}
func (panicPickStrategy) OnThreadStart(_, _ memmodel.ThreadID) {}
func (panicPickStrategy) OnEvent(ev *memmodel.Event)           {}
func (panicPickStrategy) OnSpin(tid memmodel.ThreadID)         {}
func (panicPickStrategy) NextThread(en []PendingOp) memmodel.ThreadID {
	return en[0].TID
}
func (panicPickStrategy) PickRead(rc ReadContext) int {
	panic("sc backend consulted PickRead")
}

// TestTSORMWDrains: a CAS drains the issuing thread's buffer (LOCK
// prefix) and operates on shared memory.
func TestTSORMWDrains(t *testing.T) {
	p := NewProgram("rmw-drain")
	x := p.Loc("X", 0)
	c := p.Loc("C", 0)
	b := p.Loc("b", -1)
	p.AddThread(func(th *Thread) {
		th.Store(x, 5, memmodel.Relaxed)                   // buffered...
		th.CAS(c, 0, 1, memmodel.SeqCst, memmodel.Relaxed) // ...until the LOCK CMPXCHG drains it
		th.Load(x, memmodel.Relaxed)
	})
	p.AddThread(func(th *Thread) {
		th.Store(b, th.Load(x, memmodel.Relaxed), memmodel.NonAtomic)
	})
	// T2 reads the shared copy right after T1's CAS: the drain must have
	// committed x=5.
	s := &orderStrategy{tids: []memmodel.ThreadID{1, 1, 2, 2}}
	o := Run(p, s, 1, Options{Model: ModelTSO})
	if o.FinalValues["b"] != 5 {
		t.Errorf("CAS did not drain the store buffer: b=%d, want 5", o.FinalValues["b"])
	}
	if o.FinalValues["C"] != 1 {
		t.Errorf("CAS failed: C=%d, want 1", o.FinalValues["C"])
	}
}
