package engine

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"pctwm/internal/memmodel"
)

// crashProgram has a second thread so the panicking thread's TID (2) is
// distinguishable from "no attribution" (0) and from the root thread (1).
func crashProgram() *Program {
	p := NewProgram("err-crash")
	x := p.Loc("X", 0)
	p.AddThread(func(th *Thread) { th.Store(x, 1, memmodel.Relaxed) })
	p.AddThread(func(th *Thread) { panic("kaboom") })
	return p
}

// joinCycleProgram deadlocks deterministically: the child joins itself (a
// thread is never enabled while waiting on an unfinished thread, and it
// cannot finish while blocked), and the root waits on the child. The
// child's leading Load matters: a spawned function runs eagerly up to its
// first submit while the parent's Spawn is still executing, so the load
// parks the child before it reads h — by the time it is granted again the
// parent has long assigned the handle.
func joinCycleProgram() *Program {
	p := NewProgram("err-joincycle")
	x := p.Loc("X", 0)
	p.AddThread(func(th *Thread) {
		var h *ThreadHandle
		h = th.Spawn(func(c *Thread) {
			c.Load(x, memmodel.Relaxed)
			c.Join(h)
		})
		th.Join(h)
	})
	return p
}

// spinForeverProgram never terminates under readPick 0 (the thread-local
// candidate is the initial write), so it exercises the step-limit abort.
func spinForeverProgram() *Program {
	p := NewProgram("err-spin")
	f := p.Loc("F", 0)
	p.AddThread(func(th *Thread) {
		for th.Load(f, memmodel.Relaxed) == 0 {
		}
	})
	p.AddThread(func(th *Thread) { th.Store(f, 0, memmodel.Relaxed) })
	return p
}

// TestRunErrorPanic: a panicking thread yields a structured PanicError
// attributed to the panicking thread, alongside the BugHit report.
func TestRunErrorPanic(t *testing.T) {
	o := run(t, crashProgram(), &scriptStrategy{}, Options{})
	if !o.BugHit {
		t.Fatalf("crash not reported as bug: %+v", o)
	}
	if o.Err == nil {
		t.Fatal("Outcome.Err is nil for a panicking run")
	}
	if o.Err.Kind != PanicError {
		t.Errorf("Err.Kind = %v, want %v", o.Err.Kind, PanicError)
	}
	if o.Err.TID != 2 {
		t.Errorf("Err.TID = %d, want 2 (the panicking thread)", o.Err.TID)
	}
	if !strings.Contains(o.Err.Msg, "kaboom") {
		t.Errorf("Err.Msg = %q, want the panic value", o.Err.Msg)
	}
	if o.Err.Error() != o.Err.Msg {
		t.Errorf("Error() = %q, want Msg %q", o.Err.Error(), o.Err.Msg)
	}
}

// TestRunErrorDeadlock: a join cycle yields a DeadlockError naming the
// blocked threads, with no single-thread attribution.
func TestRunErrorDeadlock(t *testing.T) {
	o := run(t, joinCycleProgram(), &scriptStrategy{}, Options{})
	if !o.Deadlocked {
		t.Fatalf("expected a deadlocked run: %+v", o)
	}
	if o.Err == nil {
		t.Fatal("Outcome.Err is nil for a deadlocked run")
	}
	if o.Err.Kind != DeadlockError {
		t.Errorf("Err.Kind = %v, want %v", o.Err.Kind, DeadlockError)
	}
	if o.Err.TID != 0 {
		t.Errorf("Err.TID = %d, want 0 (no attribution)", o.Err.TID)
	}
	if !strings.Contains(o.Err.Msg, "t1") || !strings.Contains(o.Err.Msg, "t2") {
		t.Errorf("Err.Msg = %q, want both blocked threads named", o.Err.Msg)
	}
	if !o.Failed() {
		t.Error("a deadlocked run must report Failed()")
	}
}

// TestFailedAccountsForErr: Failed() reflects the structured error —
// panics and deadlocks are failures, resource aborts (step limit,
// cancellation) are not, and a panicking run (which sets both
// BugHit and a PanicError) is counted exactly once.
func TestFailedAccountsForErr(t *testing.T) {
	cases := []struct {
		name string
		o    Outcome
		want bool
	}{
		{"clean", Outcome{}, false},
		{"bughit", Outcome{BugHit: true}, true},
		{"panic-sets-both", Outcome{BugHit: true, Err: &RunError{Kind: PanicError}}, true},
		{"panic-err-only", Outcome{Err: &RunError{Kind: PanicError}}, true},
		{"deadlock", Outcome{Deadlocked: true, Err: &RunError{Kind: DeadlockError}}, true},
		{"step-limit", Outcome{Aborted: true, Err: &RunError{Kind: StepLimitError}}, false},
		{"canceled", Outcome{Canceled: true, Err: &RunError{Kind: CanceledError}}, false},
	}
	for _, c := range cases {
		if got := c.o.Failed(); got != c.want {
			t.Errorf("%s: Failed() = %v, want %v", c.name, got, c.want)
		}
		if got := c.o.Abnormal(); got != (c.o.Err != nil) {
			t.Errorf("%s: Abnormal() = %v, want %v", c.name, got, c.o.Err != nil)
		}
	}
}

// TestRunErrorStepLimit: hitting MaxSteps yields a StepLimitError that
// names the configured budget, consistent with the Aborted flag.
func TestRunErrorStepLimit(t *testing.T) {
	o := run(t, spinForeverProgram(), &scriptStrategy{readPick: 0},
		Options{MaxSteps: 200})
	if !o.Aborted {
		t.Fatalf("expected an aborted run: %+v", o)
	}
	if o.Err == nil {
		t.Fatal("Outcome.Err is nil for an aborted run")
	}
	if o.Err.Kind != StepLimitError {
		t.Errorf("Err.Kind = %v, want %v", o.Err.Kind, StepLimitError)
	}
	if !strings.Contains(o.Err.Msg, "200") {
		t.Errorf("Err.Msg = %q, want the step budget named", o.Err.Msg)
	}
}

// TestRunErrorNilOnCleanAndAssertRuns: clean runs and plain assertion
// failures do not produce a structured error — assertion failures are
// reported through BugMessages only.
func TestRunErrorNilOnCleanAndAssertRuns(t *testing.T) {
	p := NewProgram("err-clean")
	x := p.Loc("X", 0)
	p.AddThread(func(th *Thread) { th.Store(x, 1, memmodel.Relaxed) })
	if o := run(t, p, &scriptStrategy{}, Options{}); o.Err != nil {
		t.Errorf("clean run: Err = %+v, want nil", o.Err)
	}

	q := NewProgram("err-assert")
	q.Loc("X", 0)
	q.AddThread(func(th *Thread) { th.Assert(false, "always fails") })
	o := run(t, q, &scriptStrategy{}, Options{})
	if !o.BugHit {
		t.Fatalf("assertion failure not reported: %+v", o)
	}
	if o.Err != nil {
		t.Errorf("assertion failure: Err = %+v, want nil", o.Err)
	}
}

// TestRunErrorCanceled: a pre-canceled context ends the run at the first
// watchdog check with a CanceledError; the outcome is marked Canceled and
// is not a program failure.
func TestRunErrorCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := run(t, spinForeverProgram(), &scriptStrategy{readPick: 0},
		Options{MaxSteps: 1 << 30, Context: ctx})
	if !o.Canceled {
		t.Fatalf("expected a canceled run: %+v", o)
	}
	if o.Err == nil || o.Err.Kind != CanceledError {
		t.Fatalf("Err = %+v, want CanceledError", o.Err)
	}
	if o.Steps != 0 {
		t.Errorf("pre-canceled run stepped %d times, want 0", o.Steps)
	}
	if o.Failed() {
		t.Error("cancellation must not count as a program failure")
	}
}

// TestCancelMidRunReleasesThreads: canceling from another goroutine while
// the engine livelocks aborts the in-flight run within the watchdog
// granularity; the threads parked mid-execution are unwound (the next run
// on the same Runner works) and no goroutines leak after Close.
func TestCancelMidRunReleasesThreads(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	r := NewRunner(spinForeverProgram(), Options{
		MaxSteps: 1 << 30, Context: ctx,
	})
	timer := time.AfterFunc(2*time.Millisecond, cancel)
	o := r.Run(&scriptStrategy{readPick: 0}, 1)
	timer.Stop()
	if !o.Canceled || o.Err == nil || o.Err.Kind != CanceledError {
		t.Fatalf("expected a canceled run, got %+v", o)
	}
	// The Runner must stay usable: the context is still canceled, so a
	// second run aborts immediately instead of wedging on stale state.
	o2 := r.Run(&scriptStrategy{readPick: 0}, 2)
	if !o2.Canceled {
		t.Fatalf("second run after cancel: %+v", o2)
	}
	r.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after canceled runs + Close: base %d, now %d", base, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestUncanceledContextDoesNotPerturb: attaching a live (never canceled)
// context must not change the schedule or outcome for a fixed seed.
func TestUncanceledContextDoesNotPerturb(t *testing.T) {
	p := spinForeverProgram()
	plain := run(t, p, &scriptStrategy{readPick: 0}, Options{MaxSteps: 500})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx := run(t, p, &scriptStrategy{readPick: 0}, Options{MaxSteps: 500, Context: ctx})
	if plain.Steps != withCtx.Steps || plain.Events != withCtx.Events {
		t.Fatalf("live context perturbed the run: %d/%d steps, %d/%d events",
			plain.Steps, withCtx.Steps, plain.Events, withCtx.Events)
	}
}

// TestRunErrorKindString covers the diagnostic names, including the
// zero value.
func TestRunErrorKindString(t *testing.T) {
	cases := map[RunErrorKind]string{
		PanicError:      "panic",
		DeadlockError:   "deadlock",
		StepLimitError:  "step-limit",
		CanceledError:   "canceled",
		RunErrorKind(0): "unknown",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("RunErrorKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestDurationMeasuredAroundExecution: Outcome.Duration covers the
// execution phase only (initialization + stepping), so it is positive yet
// bounded by the wall time around Run — the accounting the harness sums into TrialResult.Elapsed. Aborted runs
// make teardown (unwinding parked threads) as expensive as it gets, which
// is exactly the portion that must not be billed to Duration.
func TestDurationMeasuredAroundExecution(t *testing.T) {
	r := NewRunner(spinForeverProgram(), Options{MaxSteps: 500})
	start := time.Now()
	o := r.Run(&scriptStrategy{readPick: 0}, 1)
	wall := time.Since(start)
	r.Close()
	if !o.Aborted {
		t.Fatal("expected an aborted run")
	}
	if o.Duration <= 0 || o.Duration > wall {
		t.Errorf("Duration %v outside (0, wall %v]", o.Duration, wall)
	}
}

// TestRunnerPoolsNoHostCoroutine: thread shells keep their index across
// runs, so the host thread's shell never gets a coroutine, and a Runner
// pools one coroutine per other thread.
func TestRunnerPoolsNoHostCoroutine(t *testing.T) {
	r := NewRunner(spinForeverProgram(), Options{MaxSteps: 50})
	defer r.Close()
	for i := 0; i < 10; i++ {
		r.Run(&scriptStrategy{readPick: 0}, int64(i))
	}
	live := 0
	for i, th := range r.e.threads[:cap(r.e.threads)] {
		if th != nil && th.live {
			live++
			if i == 0 {
				t.Error("the host thread's shell holds a coroutine")
			}
		}
	}
	if want := r.Program().NumThreads() - 1; live != want {
		t.Errorf("%d pooled coroutines, want %d", live, want)
	}
}

// TestNoGoroutineLeakAfterAbortedRuns: the regression test for the
// direct-handoff scheduler's coroutine pool. Aborted runs leave threads
// parked mid-execution; the Runner must unwind and pool them, and Close
// must release the pool. A thousand aborted runs therefore may not grow
// the process goroutine count.
func TestNoGoroutineLeakAfterAbortedRuns(t *testing.T) {
	base := runtime.NumGoroutine()

	r := NewRunner(spinForeverProgram(), Options{MaxSteps: 50})
	for i := 0; i < 1000; i++ {
		o := r.Run(&scriptStrategy{readPick: 0}, int64(i))
		if !o.Aborted {
			t.Fatalf("run %d: expected an aborted run, got %+v", i, o)
		}
	}

	// Before Close the pool holds a coroutine per thread but the first,
	// which runs on the caller's goroutine.
	if n := runtime.NumGoroutine(); n > base+(r.Program().NumThreads()-1)+2 {
		t.Fatalf("goroutines grew with aborted runs: base %d, now %d", base, n)
	}

	r.Close()

	// Released coroutines unwind asynchronously; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: base %d, now %d", base, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
