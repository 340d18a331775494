package conc_test

import (
	"testing"

	"pctwm/conc"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/memmodel"
)

// TestStackPushPop: two pushers and one popper; every popped value was
// pushed, payloads never race, nothing is duplicated.
func TestStackPushPop(t *testing.T) {
	p := engine.NewProgram("stack")
	s := conc.NewStack(p, "s")
	got := p.LocArray("got", 2, 0)
	p.AddThread(func(th *engine.Thread) { s.Push(th, 11) })
	p.AddThread(func(th *engine.Thread) { s.Push(th, 22) })
	p.AddThread(func(th *engine.Thread) {
		for i := 0; i < 2; i++ {
			if v, ok := s.Pop(th); ok {
				th.Assert(v == 11 || v == 22, "popped invented value %d", v)
				th.Store(got+memmodel.Loc(i), v, memmodel.NonAtomic)
			}
		}
	})
	checkNoFailure(t, p, 150)
	// Post-condition on one run: no duplicates among popped values.
	o := engine.Run(p, core.NewRandom(), 5, engine.Options{DetectRaces: true})
	a, b := o.FinalValues["got[0]"], o.FinalValues["got[1]"]
	if a != 0 && a == b {
		t.Fatalf("duplicate pop: %v", o.FinalValues)
	}
}

// TestStackExhaustive: one pusher, one try-popping thief, every schedule:
// the thief either sees the empty stack or the complete pushed node.
func TestStackExhaustive(t *testing.T) {
	p := engine.NewProgram("stack-exhaustive")
	s := conc.NewStack(p, "s")
	r := p.Loc("r", -1)
	p.AddThread(func(th *engine.Thread) { s.Push(th, 7) })
	p.AddThread(func(th *engine.Thread) {
		if v, ok := s.TryPop(th); ok {
			th.Store(r, v, memmodel.NonAtomic)
		}
	})
	_, res := enumerate.Outcomes(p, engine.Options{DetectRaces: true}, enumerate.Config{Limit: 300000, Workers: 1}, func(o *engine.Outcome) memmodel.Value {
		if len(o.Races) > 0 {
			t.Fatalf("stack racy under some schedule: %v", o.Races[0])
		}
		v := o.FinalValues["r"]
		if v != -1 && v != 7 {
			t.Fatalf("torn pop: %v", o.FinalValues)
		}
		return v
	})
	if !res.Complete {
		t.Fatalf("state space unexpectedly large (%d runs)", res.Runs)
	}
	t.Logf("explored %d executions", res.Runs)
}

// TestSPSCQueueFIFO: the consumer receives the producer's elements in
// order, fully published, with no races.
func TestSPSCQueueFIFO(t *testing.T) {
	const n = 4
	p := engine.NewProgram("spsc")
	q := conc.NewSPSCQueue(p, "q", 2)
	recv := p.LocArray("recv", n, 0)
	p.AddNamedThread("producer", func(th *engine.Thread) {
		for i := 1; i <= n; i++ {
			for !q.TryEnqueue(th, memmodel.Value(i*10)) {
				th.Yield()
			}
		}
	})
	p.AddNamedThread("consumer", func(th *engine.Thread) {
		for i := 0; i < n; {
			v, ok := q.TryDequeue(th)
			if !ok {
				th.Yield()
				continue
			}
			th.Assert(v == memmodel.Value((i+1)*10), "out of order: got %d at position %d", v, i)
			th.Store(recv+memmodel.Loc(i), v, memmodel.NonAtomic)
			i++
		}
	})
	checkNoFailure(t, p, 120)
	o := engine.Run(p, core.NewPCTWM(2, 1, 30), 3, engine.Options{DetectRaces: true})
	if o.FinalValues["recv[3]"] != 40 {
		t.Fatalf("consumer did not drain: %v", o.FinalValues)
	}
}

// TestSPSCQueueExhaustive: a single-element handoff is race-free and
// never torn under every schedule.
func TestSPSCQueueExhaustive(t *testing.T) {
	p := engine.NewProgram("spsc-exhaustive")
	q := conc.NewSPSCQueue(p, "q", 1)
	r := p.Loc("r", -1)
	p.AddThread(func(th *engine.Thread) { q.TryEnqueue(th, 9) })
	p.AddThread(func(th *engine.Thread) {
		if v, ok := q.TryDequeue(th); ok {
			th.Store(r, v, memmodel.NonAtomic)
		}
	})
	_, res := enumerate.Outcomes(p, engine.Options{DetectRaces: true}, enumerate.Config{Limit: 300000, Workers: 1}, func(o *engine.Outcome) memmodel.Value {
		if len(o.Races) > 0 {
			t.Fatalf("SPSC queue racy under some schedule: %v", o.Races[0])
		}
		v := o.FinalValues["r"]
		if v != -1 && v != 9 {
			t.Fatalf("torn handoff: %v", o.FinalValues)
		}
		return v
	})
	if !res.Complete {
		t.Fatalf("state space unexpectedly large (%d runs)", res.Runs)
	}
	t.Logf("explored %d executions", res.Runs)
}

// TestSPSCSeededBugIsCaught: weakening the tail publication to relaxed
// makes the handoff racy — and the testers find it.
func TestSPSCSeededBugIsCaught(t *testing.T) {
	p := engine.NewProgram("spsc-bug")
	tail := p.Loc("tail", 0)
	buf := p.Loc("buf", 0)
	r := p.Loc("r", -1)
	p.AddThread(func(th *engine.Thread) {
		th.Store(buf, 9, memmodel.NonAtomic)
		th.Store(tail, 1, memmodel.Relaxed) // seeded: should be release
	})
	p.AddThread(func(th *engine.Thread) {
		if th.Load(tail, memmodel.Acquire) == 1 {
			th.Store(r, th.Load(buf, memmodel.NonAtomic), memmodel.NonAtomic)
		}
	})
	raced := false
	for seed := int64(0); seed < 200 && !raced; seed++ {
		o := engine.Run(p, core.NewRandom(), seed, engine.Options{DetectRaces: true})
		raced = len(o.Races) > 0
	}
	if !raced {
		t.Fatal("seeded relaxed publication not caught")
	}
}
