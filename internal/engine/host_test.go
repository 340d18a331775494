package engine_test

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// pickStrategy grants the thread its next function picks and reads each
// location's first candidate (the thread-local view).
type pickStrategy struct {
	next func(enabled []engine.PendingOp) memmodel.ThreadID
}

func (s *pickStrategy) Name() string                         { return "pick" }
func (s *pickStrategy) Begin(engine.ProgramInfo, *rand.Rand) {}
func (s *pickStrategy) OnThreadStart(_, _ memmodel.ThreadID) {}
func (s *pickStrategy) OnEvent(*memmodel.Event)              {}
func (s *pickStrategy) OnSpin(memmodel.ThreadID)             {}
func (s *pickStrategy) PickRead(engine.ReadContext) int      { return 0 }
func (s *pickStrategy) NextThread(enabled []engine.PendingOp) memmodel.ThreadID {
	return s.next(enabled)
}

func lowest(enabled []engine.PendingOp) memmodel.ThreadID  { return enabled[0].TID }
func highest(enabled []engine.PendingOp) memmodel.ThreadID { return enabled[len(enabled)-1].TID }

// TestHostThreadEdges runs programs whose first thread, the host thread
// that runs on the goroutine calling Run, panics, is parked when the run
// ends (each way a run can end that way), has no operations, or spawns
// and joins every other thread. Thread 1's deferred calls run exactly
// once per run, and the Runner stays reusable: its next run equals a
// fresh Runner's.
func TestHostThreadEdges(t *testing.T) {
	// canceledAfter cancels the run's context at the 100th decision; the
	// watchdog sees it at step 128.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	decisions := 0
	canceledAfter := func(enabled []engine.PendingOp) memmodel.ThreadID {
		if decisions++; decisions == 100 {
			cancel()
		}
		return enabled[0].TID
	}

	cases := []struct {
		name  string
		host  func(th *engine.Thread, x, f memmodel.Loc)
		other func(th *engine.Thread, x, f memmodel.Loc) // nil: one root
		next  func([]engine.PendingOp) memmodel.ThreadID
		opts  engine.Options
		check func(o *engine.Outcome) bool
	}{{
		name: "panics",
		host: func(th *engine.Thread, x, _ memmodel.Loc) {
			th.Store(x, 1, memmodel.Relaxed)
			panic("boom")
		},
		other: func(th *engine.Thread, _, f memmodel.Loc) { th.Store(f, 1, memmodel.Relaxed) },
		next:  lowest,
		check: func(o *engine.Outcome) bool {
			return o.Err != nil && o.Err.Kind == engine.PanicError && o.Err.TID == 1 &&
				strings.Contains(o.Err.Msg, "boom") && o.FinalValues["F"] == 1
		},
	}, {
		name: "parked at StopOnBug",
		host: func(th *engine.Thread, x, _ memmodel.Loc) {
			th.Store(x, 1, memmodel.Relaxed)
			th.Store(x, 2, memmodel.Relaxed)
		},
		other: func(th *engine.Thread, _, _ memmodel.Loc) { th.Assert(false, "t2 fails") },
		next:  highest,
		opts:  engine.Options{StopOnBug: true},
		check: func(o *engine.Outcome) bool { return o.BugHit && o.Steps == 1 && o.FinalValues["X"] == 0 },
	}, {
		name: "parked at deadlock",
		host: func(th *engine.Thread, x, _ memmodel.Loc) {
			var h *engine.ThreadHandle
			h = th.Spawn(func(c *engine.Thread) {
				c.Load(x, memmodel.Relaxed)
				c.Join(h)
			})
			th.Join(h)
		},
		next:  lowest,
		check: func(o *engine.Outcome) bool { return o.Deadlocked },
	}, {
		name:  "parked at step limit",
		host:  spinOn,
		other: func(th *engine.Thread, _, f memmodel.Loc) { th.Store(f, 0, memmodel.Relaxed) },
		next:  lowest,
		opts:  engine.Options{MaxSteps: 100},
		check: func(o *engine.Outcome) bool { return o.Aborted && o.Steps == 100 },
	}, {
		name:  "parked at cancellation",
		host:  spinOn,
		other: func(th *engine.Thread, _, f memmodel.Loc) { th.Store(f, 0, memmodel.Relaxed) },
		next:  canceledAfter,
		opts:  engine.Options{MaxSteps: 1 << 30, Context: ctx},
		check: func(o *engine.Outcome) bool { return o.Canceled },
	}, {
		name:  "no operations",
		host:  func(*engine.Thread, memmodel.Loc, memmodel.Loc) {},
		other: func(th *engine.Thread, x, _ memmodel.Loc) { th.Store(x, 1, memmodel.Relaxed) },
		next:  lowest,
		check: func(o *engine.Outcome) bool { return o.Err == nil && o.Steps == 1 && o.FinalValues["X"] == 1 },
	}, {
		name: "spawns and joins",
		host: func(th *engine.Thread, x, f memmodel.Loc) {
			hx := th.Spawn(func(c *engine.Thread) { c.Store(x, 1, memmodel.Relaxed) })
			hf := th.Spawn(func(c *engine.Thread) { c.Store(f, 2, memmodel.Relaxed) })
			th.Join(hx)
			th.Join(hf)
			th.Store(x, th.Load(x, memmodel.Relaxed)+th.Load(f, memmodel.Relaxed), memmodel.Relaxed)
		},
		next:  highest,
		check: func(o *engine.Outcome) bool { return o.Err == nil && o.FinalValues["X"] == 3 },
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defers := 0
			p := engine.NewProgram("host")
			x, f := p.Loc("X", 0), p.Loc("F", 0)
			p.AddThread(func(th *engine.Thread) {
				defer func() { defers++ }()
				c.host(th, x, f)
			})
			if c.other != nil {
				p.AddThread(func(th *engine.Thread) { c.other(th, x, f) })
			}
			runOnce := func(r *engine.Runner) *engine.Outcome {
				t.Helper()
				defers = 0
				o := r.Run(&pickStrategy{next: c.next}, 1)
				if !c.check(o) {
					t.Fatalf("unexpected outcome %+v (err %v)", o, o.Err)
				}
				if defers != 1 {
					t.Fatalf("thread 1's deferred call ran %d times, want 1", defers)
				}
				return stripTiming(o)
			}
			r := engine.NewRunner(p, c.opts)
			defer r.Close()
			runOnce(r)
			again := runOnce(r)
			fresh := engine.NewRunner(p, c.opts)
			defer fresh.Close()
			if want := runOnce(fresh); !reflect.DeepEqual(again, want) {
				t.Fatalf("reused Runner's run differs from a fresh Runner's:\nreused: %+v\nfresh:  %+v", again, want)
			}
		})
	}
}

// spinOn loads f until it reads nonzero, which under thread-local reads
// is never.
func spinOn(th *engine.Thread, _, f memmodel.Loc) {
	for th.Load(f, memmodel.Relaxed) == 0 {
	}
}

// TestDurationExcludesHostUnwind: a run that ends while thread 1 is
// parked unwinds thread 1's body on the caller's goroutine after the
// run's end is stamped, so Outcome.Duration does not include the unwind.
func TestDurationExcludesHostUnwind(t *testing.T) {
	const unwind = 50 * time.Millisecond
	p := engine.NewProgram("slow-unwind")
	f := p.Loc("F", 0)
	p.AddThread(func(th *engine.Thread) {
		defer time.Sleep(unwind)
		spinOn(th, 0, f)
	})
	start := time.Now()
	o := engine.Run(p, &pickStrategy{next: lowest}, 1, engine.Options{MaxSteps: 100})
	if wall := time.Since(start); !o.Aborted || wall < unwind || o.Duration >= unwind {
		t.Fatalf("aborted %v, Duration %v, wall %v: want an aborted run whose Duration excludes the %v unwind",
			o.Aborted, o.Duration, wall, unwind)
	}
}

// TestFirstDecisionPanicIsThreadOneCrash: the run's first decision is
// made inside thread 1's first park, so a strategy panic there is thread
// 1's crash, like a panic in any decision made inside a thread's park.
// The run goes on with the other threads.
func TestFirstDecisionPanicIsThreadOneCrash(t *testing.T) {
	p := engine.NewProgram("first-decision")
	x, y := p.Loc("X", 0), p.Loc("Y", 0)
	p.AddThread(func(th *engine.Thread) { th.Store(x, 1, memmodel.Relaxed) })
	p.AddThread(func(th *engine.Thread) { th.Store(y, 1, memmodel.Relaxed) })
	calls := 0
	o := engine.Run(p, &pickStrategy{next: func(en []engine.PendingOp) memmodel.ThreadID {
		if calls++; calls == 1 {
			panic("strategy bug")
		}
		return en[0].TID
	}}, 1, engine.Options{})
	if o.Err == nil || o.Err.Kind != engine.PanicError || o.Err.TID != 1 || !strings.Contains(o.Err.Msg, "strategy bug") {
		t.Fatalf("Err = %+v, want thread 1's crash with the strategy's panic", o.Err)
	}
	if o.FinalValues["X"] != 0 || o.FinalValues["Y"] != 1 {
		t.Fatalf("final values %v, want thread 2's store only", o.FinalValues)
	}
}

// TestResumedThreadPanicEscapesRun: a strategy panic in the decision a
// finishing thread makes while thread 1 is parked is not thread 1's
// crash. It escapes Run, as it does when thread 1 has finished.
func TestResumedThreadPanicEscapesRun(t *testing.T) {
	p := engine.NewProgram("escape")
	x, y := p.Loc("X", 0), p.Loc("Y", 0)
	p.AddThread(func(th *engine.Thread) {
		th.Store(x, 1, memmodel.Relaxed)
		th.Store(x, 2, memmodel.Relaxed)
	})
	p.AddThread(func(th *engine.Thread) { th.Store(y, 1, memmodel.Relaxed) })
	var got any
	func() {
		defer func() { got = recover() }()
		engine.Run(p, &pickStrategy{next: func(en []engine.PendingOp) memmodel.ThreadID {
			if len(en) == 1 && en[0].TID == 1 {
				panic("strategy bug") // thread 2 has finished
			}
			return highest(en)
		}}, 1, engine.Options{})
	}()
	if got != "strategy bug" {
		t.Fatalf("Run panicked with %v, want the strategy's panic", got)
	}
}
