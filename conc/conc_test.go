package conc_test

import (
	"testing"

	"pctwm"
	"pctwm/conc"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/memmodel"
)

// strategies used across the suite: the primitives must be correct under
// every tester.
func strategies() []func() engine.Strategy {
	return []func() engine.Strategy{
		func() engine.Strategy { return core.NewRandom() },
		func() engine.Strategy { return core.NewPCT(3, 40) },
		func() engine.Strategy { return core.NewPCTWM(2, 2, 20) },
		func() engine.Strategy { return core.NewPCTWM(0, 1, 20) },
	}
}

// checkNoFailure runs the program many rounds under every strategy and
// requires no assertion failures, races, aborts, or deadlocks.
func checkNoFailure(t *testing.T, p *engine.Program, rounds int) {
	t.Helper()
	opts := engine.Options{DetectRaces: true}
	for _, ns := range strategies() {
		name := ns().Name()
		for seed := int64(0); seed < int64(rounds); seed++ {
			o := engine.Run(p, ns(), seed, opts)
			if o.BugHit {
				t.Fatalf("[%s seed %d] %v", name, seed, o.BugMessages)
			}
			if len(o.Races) > 0 {
				t.Fatalf("[%s seed %d] race: %v", name, seed, o.Races[0])
			}
			if o.Aborted || o.Deadlocked {
				t.Fatalf("[%s seed %d] aborted=%v deadlocked=%v", name, seed, o.Aborted, o.Deadlocked)
			}
		}
	}
}

// TestMutexMutualExclusion: plain counter increments under the mutex are
// race-free and never lose updates.
func TestMutexMutualExclusion(t *testing.T) {
	p := engine.NewProgram("mutex")
	m := conc.NewMutex(p, "m")
	count := p.Loc("count", 0)
	const workers = 3
	for i := 0; i < workers; i++ {
		p.AddThread(func(th *engine.Thread) {
			m.Lock(th)
			v := th.Load(count, memmodel.NonAtomic)
			th.Store(count, v+1, memmodel.NonAtomic)
			th.Assert(th.Load(count, memmodel.NonAtomic) == v+1, "count torn inside the critical section")
			m.Unlock(th)
		})
	}
	checkNoFailure(t, p, 150)
	o := engine.Run(p, core.NewRandom(), 1, engine.Options{})
	if o.FinalValues["count"] != workers {
		t.Fatalf("lost update: %v", o.FinalValues)
	}
}

// TestMutexExhaustive: every schedule and reads-from choice of a
// two-thread try-lock program keeps mutual exclusion — no data race, and
// the counter equals the number of successful acquisitions. TryLock keeps
// the program loop-free so the exploration terminates.
func TestMutexExhaustive(t *testing.T) {
	p := engine.NewProgram("mutex-exhaustive")
	m := conc.NewMutex(p, "m")
	count := p.Loc("count", 0)
	won := p.LocArray("won", 2, 0)
	for i := 0; i < 2; i++ {
		i := i
		p.AddThread(func(th *engine.Thread) {
			if !m.TryLock(th) {
				return
			}
			th.Store(won+memmodel.Loc(i), 1, memmodel.NonAtomic)
			v := th.Load(count, memmodel.NonAtomic)
			th.Store(count, v+1, memmodel.NonAtomic)
			m.Unlock(th)
		})
	}
	_, res := enumerate.Outcomes(p, engine.Options{DetectRaces: true}, enumerate.Config{Limit: 200000, Workers: 1}, func(o *engine.Outcome) memmodel.Value {
		if len(o.Races) > 0 {
			t.Fatalf("race under some schedule: %v", o.Races[0])
		}
		locked := o.FinalValues["won[0]"] + o.FinalValues["won[1]"]
		if o.FinalValues["count"] != locked {
			t.Fatalf("lost update under some schedule: %v", o.FinalValues)
		}
		return locked
	})
	if !res.Complete {
		t.Fatalf("state space unexpectedly large (%d runs)", res.Runs)
	}
	if res.Truncated > 0 {
		t.Fatalf("%d truncated executions", res.Truncated)
	}
	t.Logf("explored %d executions", res.Runs)
}

// TestTryLock: at most one of two competing TryLocks succeeds while the
// lock is free; the loser sees false.
func TestTryLock(t *testing.T) {
	p := engine.NewProgram("trylock")
	m := conc.NewMutex(p, "m")
	got := p.LocArray("got", 2, 0)
	for i := 0; i < 2; i++ {
		i := i
		p.AddThread(func(th *engine.Thread) {
			if m.TryLock(th) {
				th.Store(got+memmodel.Loc(i), 1, memmodel.NonAtomic)
				m.Unlock(th)
			}
		})
	}
	checkNoFailure(t, p, 100)
}

// TestRWMutex: readers see complete writer publications; concurrent
// readers do not race with each other.
func TestRWMutex(t *testing.T) {
	p := engine.NewProgram("rwmutex")
	l := conc.NewRWMutex(p, "l")
	d1 := p.Loc("d1", 0)
	d2 := p.Loc("d2", 0)
	p.AddNamedThread("writer", func(th *engine.Thread) {
		l.Lock(th)
		th.Store(d1, 1, memmodel.NonAtomic)
		th.Store(d2, 2, memmodel.NonAtomic)
		l.Unlock(th)
	})
	reader := func(th *engine.Thread) {
		l.RLock(th)
		v1 := th.Load(d1, memmodel.NonAtomic)
		v2 := th.Load(d2, memmodel.NonAtomic)
		l.RUnlock(th)
		th.Assert((v1 == 0 && v2 == 0) || (v1 == 1 && v2 == 2),
			"torn read: d1=%d d2=%d", v1, v2)
	}
	p.AddNamedThread("reader1", reader)
	p.AddNamedThread("reader2", reader)
	checkNoFailure(t, p, 150)
}

// TestWaitGroup: after Wait, all workers' plain writes are visible.
func TestWaitGroup(t *testing.T) {
	const workers = 3
	p := engine.NewProgram("waitgroup")
	wg := conc.NewWaitGroup(p, "wg", workers)
	out := p.LocArray("out", workers, 0)
	for i := 0; i < workers; i++ {
		i := i
		p.AddThread(func(th *engine.Thread) {
			th.Store(out+memmodel.Loc(i), memmodel.Value(i+1), memmodel.NonAtomic)
			wg.Done(th)
		})
	}
	p.AddNamedThread("waiter", func(th *engine.Thread) {
		wg.Wait(th)
		sum := memmodel.Value(0)
		for i := 0; i < workers; i++ {
			sum += th.Load(out+memmodel.Loc(i), memmodel.NonAtomic)
		}
		th.Assert(sum == 6, "waiter missed worker writes: sum=%d", sum)
	})
	checkNoFailure(t, p, 150)
}

// TestBarrier: both parties see each other's pre-barrier writes after
// Await, across two phases.
func TestBarrier(t *testing.T) {
	p := engine.NewProgram("barrier")
	b := conc.NewBarrier(p, "b", 2)
	x := p.LocArray("x", 2, 0)
	y := p.LocArray("y", 2, 0)
	for i := 0; i < 2; i++ {
		i := i
		other := memmodel.Loc(1 - i)
		p.AddThread(func(th *engine.Thread) {
			th.Store(x+memmodel.Loc(i), 1, memmodel.NonAtomic)
			b.Await(th)
			th.Assert(th.Load(x+other, memmodel.NonAtomic) == 1, "phase-1 write invisible")
			th.Store(y+memmodel.Loc(i), 1, memmodel.NonAtomic)
			b.Await(th)
			th.Assert(th.Load(y+other, memmodel.NonAtomic) == 1, "phase-2 write invisible")
		})
	}
	checkNoFailure(t, p, 150)
}

// TestOnce: fn runs exactly once; non-runners observe its effects.
func TestOnce(t *testing.T) {
	p := engine.NewProgram("once")
	o := conc.NewOnce(p, "o")
	ran := p.Loc("ran", 0)
	winners := p.Loc("winners", 0)
	for i := 0; i < 3; i++ {
		p.AddThread(func(th *engine.Thread) {
			won := o.Do(th, func() {
				v := th.Load(ran, memmodel.NonAtomic)
				th.Store(ran, v+1, memmodel.NonAtomic)
			})
			if won {
				th.FetchAdd(winners, 1, memmodel.Relaxed)
			}
			th.Assert(th.Load(ran, memmodel.NonAtomic) == 1, "once effects invisible or doubled")
		})
	}
	checkNoFailure(t, p, 150)
	out := engine.Run(p, core.NewRandom(), 7, engine.Options{})
	if out.FinalValues["winners"] != 1 {
		t.Fatalf("winners = %v, want 1", out.FinalValues["winners"])
	}
}

// TestSemaphore: with one permit, the protected section is exclusive.
func TestSemaphore(t *testing.T) {
	p := engine.NewProgram("semaphore")
	s := conc.NewSemaphore(p, "s", 1)
	count := p.Loc("count", 0)
	for i := 0; i < 2; i++ {
		p.AddThread(func(th *engine.Thread) {
			s.Acquire(th)
			v := th.Load(count, memmodel.NonAtomic)
			th.Store(count, v+1, memmodel.NonAtomic)
			s.Release(th)
		})
	}
	checkNoFailure(t, p, 150)
	o := engine.Run(p, core.NewRandom(), 9, engine.Options{})
	if o.FinalValues["count"] != 2 {
		t.Fatalf("semaphore lost an update: %v", o.FinalValues)
	}
}

// TestPrimitivesThroughPublicAPI: conc composes with the public facade.
func TestPrimitivesThroughPublicAPI(t *testing.T) {
	p := pctwm.NewProgram("facade")
	m := conc.NewMutex(p, "m")
	c := p.Loc("c", 0)
	for i := 0; i < 2; i++ {
		p.AddThread(func(th *pctwm.Thread) {
			m.Lock(th)
			th.Store(c, th.Load(c, pctwm.NonAtomic)+1, pctwm.NonAtomic)
			m.Unlock(th)
		})
	}
	o := pctwm.Run(p, pctwm.NewPCTWM(1, 1, 8), 3, pctwm.Options{DetectRaces: true})
	if o.Failed() || o.FinalValues["c"] != 2 {
		t.Fatalf("outcome %+v", o.FinalValues)
	}
}
