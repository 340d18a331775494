package engine_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// faultyStrategy runs one schedule that reaches every callback of the
// panic program: it grants the lowest enabled thread not reported
// spinning, and reads the thread-local write, or the latest once the
// reader has spun. Each callback first calls fault.
type faultyStrategy struct {
	fault     fault
	spun      [4]bool
	last      memmodel.ThreadID
	decisions int
	struck    bool // a fault panicked in this run
}

func (s *faultyStrategy) Name() string { return "faulty" }
func (s *faultyStrategy) Begin(engine.ProgramInfo, *rand.Rand) {
	*s = faultyStrategy{fault: s.fault}
	s.fault(s, "Begin", 0, nil)
}
func (s *faultyStrategy) OnThreadStart(tid, _ memmodel.ThreadID) {
	s.fault(s, "OnThreadStart", tid, nil)
}
func (s *faultyStrategy) OnEvent(ev *memmodel.Event) { s.fault(s, "OnEvent", ev.TID, nil) }
func (s *faultyStrategy) OnSpin(tid memmodel.ThreadID) {
	s.fault(s, "OnSpin", tid, nil)
	s.spun[tid] = true
}
func (s *faultyStrategy) PickRead(rc engine.ReadContext) int {
	if c := s.fault(s, "PickRead", rc.TID, nil); c >= 0 {
		return c
	}
	if s.spun[rc.TID] {
		return len(rc.Candidates) - 1
	}
	return 0
}
func (s *faultyStrategy) NextThread(en []engine.PendingOp) memmodel.ThreadID {
	s.decisions++
	if c := s.fault(s, "NextThread", s.last, en); c >= 0 {
		return memmodel.ThreadID(c)
	}
	s.last = en[0].TID
	for _, op := range en {
		if !s.spun[op.TID] {
			s.last = op.TID
			break
		}
	}
	return s.last
}

// A fault gets a callback's name, its thread (for NextThread, the thread
// granted last, which makes the decision) and the enabled list
// (NextThread only). It may panic, or return a choice to make instead of
// the schedule's, or -1.
type fault func(s *faultyStrategy, hook string, tid memmodel.ThreadID, en []engine.PendingOp) int

// A cond tells a fault when to strike.
type cond func(s *faultyStrategy, tid memmodel.ThreadID, en []engine.PendingOp) bool

func isEnabled(en []engine.PendingOp, tid memmodel.ThreadID) bool {
	for _, op := range en {
		if op.TID == tid {
			return true
		}
	}
	return false
}

// panicProgram has three threads, so that two coroutines hand off to
// each other: thread 1, the host thread, stores X and spins until it
// reads F set; thread 2 spawns thread 3, loads X and joins thread 3;
// thread 3 sets F. Threads 1 and 2 defer a store to D, so that a panic
// unwinds an operation on the host and on a coroutine. The thread whose
// id is crash runs bug right after its store.
func panicProgram(crash memmodel.ThreadID, bug func(*engine.Thread)) *engine.Program {
	p := engine.NewProgram("panic-points")
	x, f, d := p.Loc("X", 0), p.Loc("F", 0), p.Loc("D", 0)
	store := func(th *engine.Thread, l memmodel.Loc) {
		th.Store(l, 1, memmodel.Relaxed)
		if th.ID() == crash {
			bug(th)
		}
	}
	p.AddThread(func(th *engine.Thread) {
		defer th.Store(d, 1, memmodel.Relaxed)
		store(th, x)
		spinOn(th, x, f)
	})
	p.AddThread(func(th *engine.Thread) {
		defer th.Store(d, 2, memmodel.Relaxed)
		h := th.Spawn(func(c *engine.Thread) { store(c, f) })
		th.Load(x, memmodel.Relaxed)
		th.Join(h)
	})
	return p
}

// TestPanicRule: a panic raised by the program's own code, or by misuse
// the thread's operation shows, is that thread's crash, and every other
// panic escapes Run: one raised by any strategy callback, or by an engine
// invariant inside a decision. The deferred operations it unwinds make
// no decision. After it, the same Runner's next runs equal a fresh
// Runner's, Recording included; panicked runs leak no goroutine, and
// Close releases the pool.
func TestPanicRule(t *testing.T) {
	// A fault strikes once per run, as a strategy bug on one path does.
	panicIn := func(hook string, when cond) fault {
		return func(s *faultyStrategy, h string, tid memmodel.ThreadID, en []engine.PendingOp) int {
			if h == hook && !s.struck && when(s, tid, en) {
				s.struck = true
				panic("strategy bug in " + hook)
			}
			return -1
		}
	}
	choose := func(hook string, when cond, choice int) fault {
		return func(s *faultyStrategy, h string, tid memmodel.ThreadID, en []engine.PendingOp) int {
			if h == hook && when(s, tid, en) {
				return choice
			}
			return -1
		}
	}
	always := func(*faultyStrategy, memmodel.ThreadID, []engine.PendingOp) bool { return true }
	thread := func(want memmodel.ThreadID) cond {
		return func(_ *faultyStrategy, tid memmodel.ThreadID, _ []engine.PendingOp) bool { return tid == want }
	}
	none := func(*faultyStrategy, string, memmodel.ThreadID, []engine.PendingOp) int { return -1 }
	const threads = 3 // two roots and the thread the second spawns
	// A handle kept from another program's run names its thread 4, past
	// this program's thread count.
	spawner := engine.NewProgram("spawner")
	var kept *engine.ThreadHandle
	spawner.AddThread(func(th *engine.Thread) {
		for i := 0; i < threads; i++ {
			kept = th.Spawn(func(*engine.Thread) {})
		}
	})
	engine.Run(spawner, core.NewRandom(), 1, engine.Options{})

	cases := []struct {
		name  string
		crash memmodel.ThreadID // the thread that runs bug, or 0
		bug   func(*engine.Thread)
		fault fault
		// want is what Run panics with or, for a crash, the PanicError's
		// message.
		want string
		// pick marks a fault in PickRead, which sc never consults: every
		// read has one candidate there.
		pick bool
	}{
		{name: "Begin", fault: panicIn("Begin", always), want: "strategy bug in Begin"},
		{name: "root OnThreadStart", fault: panicIn("OnThreadStart", thread(2)), want: "strategy bug in OnThreadStart"},
		{name: "spawned OnThreadStart", fault: panicIn("OnThreadStart", thread(3)), want: "strategy bug in OnThreadStart"},
		{name: "first decision", fault: panicIn("NextThread", func(s *faultyStrategy, _ memmodel.ThreadID, _ []engine.PendingOp) bool {
			return s.decisions == 1
		}), want: "strategy bug in NextThread"},
		{name: "decision in a coroutine park", fault: panicIn("NextThread", func(_ *faultyStrategy, tid memmodel.ThreadID, en []engine.PendingOp) bool {
			return tid > 1 && isEnabled(en, tid)
		}), want: "strategy bug in NextThread"},
		{name: "decision of a finishing thread with thread 1 parked", fault: panicIn("NextThread", func(_ *faultyStrategy, tid memmodel.ThreadID, en []engine.PendingOp) bool {
			return tid == 3 && !isEnabled(en, 3) && isEnabled(en, 1)
		}), want: "strategy bug in NextThread"},
		{name: "PickRead", fault: panicIn("PickRead", always), want: "strategy bug in PickRead", pick: true},
		{name: "OnEvent", fault: panicIn("OnEvent", thread(3)), want: "strategy bug in OnEvent"},
		{name: "OnSpin", fault: panicIn("OnSpin", always), want: "strategy bug in OnSpin"},
		{name: "out-of-range PickRead", fault: choose("PickRead", always, 99),
			want: "strategy faulty picked read candidate 99 of 2", pick: true},
		{name: "non-enabled NextThread", fault: choose("NextThread", func(_ *faultyStrategy, _ memmodel.ThreadID, en []engine.PendingOp) bool {
			return !isEnabled(en, 2) // blocked in Join
		}, 2), want: "strategy faulty chose non-enabled thread 2"},
		{name: "program panic in thread 1", crash: 1, bug: func(*engine.Thread) { panic("program bug") },
			fault: none, want: "thread T1 (t1) crashed: program bug"},
		{name: "program panic in thread 3", crash: 3, bug: func(*engine.Thread) { panic("program bug") },
			fault: none, want: "thread T2.3 (t3) crashed: program bug"},
		{name: "relaxed fence in thread 3", crash: 3, bug: func(th *engine.Thread) { th.Fence(memmodel.Relaxed) },
			fault: none, want: "thread T2.3 (t3) crashed: pctwm: fence with order rlx"},
		{name: "invalid location in thread 1", crash: 1, bug: func(th *engine.Thread) { th.Load(99, memmodel.Relaxed) },
			fault: none, want: "thread T1 (t1) crashed: pctwm: access to invalid location 99"},
		{name: "join of a zero handle in thread 3", crash: 3, bug: func(th *engine.Thread) { th.Join(&engine.ThreadHandle{}) },
			fault: none, want: "thread T2.3 (t3) crashed: pctwm: join of unknown thread 0"},
		{name: "join of a handle from another run in thread 1", crash: 1, bug: func(th *engine.Thread) { th.Join(kept) },
			fault: none, want: "thread T1 (t1) crashed: pctwm: join of unknown thread 4"},
	}
	for _, model := range engine.Models() {
		opts := engine.Options{Model: model, Record: true, DetectRaces: true, Coverage: true}
		for _, c := range cases {
			if c.pick && model == engine.ModelSC {
				continue
			}
			t.Run(model+"/"+c.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				p := panicProgram(c.crash, c.bug)
				faulty := func(r *engine.Runner) (o *engine.Outcome, got any) {
					defer func() { got = recover() }()
					return r.Run(&faultyStrategy{fault: c.fault}, 1), nil
				}
				r := engine.NewRunner(p, opts)
				o, got := faulty(r)
				if c.crash != 0 {
					if got != nil {
						t.Fatalf("Run panicked with %v, want thread %d's crash %q", got, c.crash, c.want)
					}
					if o.Err == nil || o.Err.Kind != engine.PanicError || o.Err.TID != c.crash || o.Err.Msg != c.want {
						t.Fatalf("Err %+v, want thread %d's crash %q", o.Err, c.crash, c.want)
					}
				} else if s, _ := got.(string); !strings.Contains(s, c.want) {
					t.Fatalf("Run panicked with %v, want %q", got, c.want)
				}

				fresh := engine.NewRunner(p, opts)
				for seed := int64(1); seed <= 10; seed++ {
					again := stripTiming(r.Run(core.NewRandom(), seed))
					if want := stripTiming(fresh.Run(core.NewRandom(), seed)); !reflect.DeepEqual(again, want) {
						t.Fatalf("seed %d: the reused Runner's run differs from a fresh Runner's:\nreused: %+v\nfresh:  %+v", seed, again, want)
					}
				}
				fresh.Close()

				for i := 1; i < 100; i++ {
					faulty(r)
				}
				if n := runtime.NumGoroutine(); n > base+(threads-1)+2 {
					t.Fatalf("goroutines grew with panicked runs: base %d, now %d", base, n)
				}
				r.Close()
				deadline := time.Now().Add(5 * time.Second)
				for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
					if time.Now().After(deadline) {
						t.Fatalf("goroutines leaked after Close: base %d, now %d", base, n)
					}
					time.Sleep(5 * time.Millisecond)
				}
			})
		}
	}
}

// TestFirstDecisionPanicEscapesRun: the run's first decision is made
// inside thread 1's first park, and a strategy panic there escapes Run
// like a panic in any decision. On the way, thread 1's body and thread
// 2's, parked at its first operation, unwind: each deferred call runs
// once.
func TestFirstDecisionPanicEscapesRun(t *testing.T) {
	p := engine.NewProgram("first-decision")
	x, y := p.Loc("X", 0), p.Loc("Y", 0)
	var defers [2]int
	p.AddThread(func(th *engine.Thread) {
		defer func() { defers[0]++ }()
		th.Store(x, 1, memmodel.Relaxed)
	})
	p.AddThread(func(th *engine.Thread) {
		defer func() { defers[1]++ }()
		th.Store(y, 1, memmodel.Relaxed)
	})
	var got any
	func() {
		defer func() { got = recover() }()
		engine.Run(p, &pickStrategy{next: func([]engine.PendingOp) memmodel.ThreadID {
			panic("strategy bug")
		}}, 1, engine.Options{})
	}()
	if got != "strategy bug" || defers != [2]int{1, 1} {
		t.Fatalf("Run panicked with %v, and the threads' deferred calls ran %v times: want the strategy's panic, and once each",
			got, defers)
	}
}

// TestTornDownThreadDeferredCalls: as a deadlock's end tears the threads
// down, thread 1 unwound on the host and threads 2 and 3 by teardown, a
// deferred call's operation is not performed and unwinds that call, and
// a deferred call that panics is the program's panic: that thread's
// crash, not an escape from Run. Neither makes a decision, though thread
// 3, which joins thread 2, is enabled once thread 2 has crashed. The
// Runner's next runs equal a fresh Runner's.
func TestTornDownThreadDeferredCalls(t *testing.T) {
	p := engine.NewProgram("deferred-calls")
	x, d := p.Loc("X", 0), p.Loc("D", 0)
	after := 0 // deferred calls that went on after their operation
	store := func(th *engine.Thread) {
		th.Store(d, 1, memmodel.Relaxed)
		after++
	}
	crash := func() { panic("deferred bug") }
	p.AddThread(func(th *engine.Thread) {
		defer crash()
		defer store(th)
		var h2 *engine.ThreadHandle
		h2 = th.Spawn(func(c *engine.Thread) {
			defer crash()
			defer store(c)
			c.Load(x, memmodel.Relaxed)
			c.Join(h2) // itself: never enabled
		})
		h3 := th.Spawn(func(c *engine.Thread) {
			defer crash()
			c.Join(h2)
		})
		th.Join(h3)
	})
	var opts engine.Options
	r := engine.NewRunner(p, opts)
	defer r.Close()
	want := []string{"thread T1 (t1) crashed: deferred bug", "thread T1.2 (t2) crashed: deferred bug",
		"thread T1.3 (t3) crashed: deferred bug"}
	for i := 0; i < 3; i++ {
		after = 0
		o := stripTiming(r.Run(&pickStrategy{next: lowest}, 1))
		if !o.Deadlocked || o.Steps != 3 || o.FinalValues["D"] != 0 || after != 0 || !reflect.DeepEqual(o.BugMessages, want) {
			t.Fatalf("run %d: deadlocked %v after %d steps, D = %d, %d deferred calls went on after their store, bug messages %q: "+
				"want a deadlock after 3 steps, D unwritten, none, and the crashes %q",
				i, o.Deadlocked, o.Steps, o.FinalValues["D"], after, o.BugMessages, want)
		}
		if f := stripTiming(engine.Run(p, &pickStrategy{next: lowest}, 1, opts)); !reflect.DeepEqual(o, f) {
			t.Fatalf("run %d: the reused Runner's run differs from a fresh Runner's:\nreused: %+v\nfresh:  %+v", i, o, f)
		}
	}
}
