package engine

// Direct-handoff scheduler.
//
// The engine serializes simulated threads with a baton: exactly one
// goroutine touches engine state at a time. The first root thread (the
// host thread) runs on the host, the goroutine that called Runner.Run;
// every other thread runs on a coroutine (iter.Pull, backed by the
// runtime's coroswitch), so a handoff is a direct goroutine switch that
// never enters the Go scheduler. The parking thread runs the strategy
// decision inline on its own stack (Strategy state is engine-serialized,
// so no locking is needed) and publishes the grant in engine state; the
// host trampoline resumes the granted thread. While the host thread is
// parked, its own park loop is that trampoline:
//
//	t1 (host) ──driveStep()──► e.granted = t2 ──t2.resume()──► t2 continues
//	t2 ──driveStep()──► e.granted = t1 ──yield──► t1 continues
//	t2 ──driveStep()──► e.granted = t3 ──yield──► host ──t3.resume()──► t3
//
// A handoff to or from the host thread is one coroswitch, one between two
// coroutine threads two, and a grant of the same thread again none. Thread
// coroutines are pooled across runs: when a run ends, each shell's
// coroutine parks on its between-runs yield, so the next run reuses it
// (and its already-grown stack). Runner.Close releases the pool.
//
// Invariant: strategy state (and all engine state) is only touched by the
// goroutine currently holding the baton. The baton moves exclusively
// through coroutine switches, so every state access is ordered by a
// happens-before edge (iter.Pull is race-instrumented) — the protocol is
// race-detector-clean.

import (
	"iter"
	"time"
)

// run executes one run: it starts the root threads, runs the host
// thread's body on this goroutine and trampolines until a decision ends
// the run. That decision stamps Duration (grant), so the unwinding of
// parked threads after an aborted run is not billed to it.
func (e *Engine) run() {
	defer e.teardown()
	e.start = time.Now()
	e.endRun = false
	host := e.startRoots()
	e.granted = host // the host thread holds the grant while its code runs (see runBody)
	host.runBody(e.prog.threads[0].fn)
	e.trampoline(nil)
}

// trampoline resumes the granted thread until the run ends or self is
// granted, and reports whether the run ended. The host thread's park runs
// it with self = the host thread, and run with self = nil.
func (e *Engine) trampoline(self *Thread) bool {
	for !e.endRun {
		if e.granted == self {
			return false
		}
		e.granted.resume()
	}
	return true
}

// grant publishes a decision that did not grant the deciding thread
// itself: the granted thread and its response, or the end of the run.
func (e *Engine) grant(t *Thread, res response, ended bool) {
	if ended {
		e.endRun = true
		e.outcome.Duration = time.Since(e.start)
		return
	}
	e.granted, e.grantRes = t, res
}

// startThread hands fn to t's pooled coroutine (creating it on first
// use of the shell) and resumes it; the resume call returns when the
// thread parks on its first operation or finishes. The caller holds the
// baton; the new thread's first yield returns control here (iter.Pull
// yields return to the most recent resumer).
func (e *Engine) startThread(t *Thread, fn ThreadFunc) {
	t.started = true
	t.firstPark = true
	if !t.live {
		t.live = true
		t.resume, t.stop = iter.Pull(t.coroLoop)
	}
	e.startFn = fn
	t.resume()
	e.startFn = nil
}

// coroLoop is the body of a pooled thread coroutine: it serves one
// ThreadFunc per run and parks on its between-runs yield in between. The
// yield returns false only when Runner.Close stops the coroutine.
func (t *Thread) coroLoop(yield func(struct{}) bool) {
	t.yield = yield
	for {
		t.runBody(t.eng.startFn)
		if !yield(struct{}{}) {
			return
		}
	}
}

// runBody runs one ThreadFunc to completion, unwinding (killedError) or
// user panic, and performs the completion epilogue (finish).
func (t *Thread) runBody(fn ThreadFunc) {
	defer func() {
		r := recover()
		if _, ok := r.(killedError); ok {
			// Torn down mid-run: a coroutine falls back to coroLoop (whose
			// between-runs yield returns to teardown), the host to run.
			return
		}
		if r != nil && t.host && t.eng.granted != t {
			// The host thread was parked in its trampoline: the panic
			// escaped the thread it resumed, and escapes Run as it would
			// from run's trampoline.
			panic(r)
		}
		t.finish(r != nil, r)
	}()
	fn(t)
}

// finish is the completion protocol of a thread whose ThreadFunc
// returned or panicked with a user error. Falling out of it returns to
// the resumer (the starter for never-parked coroutine threads, the
// trampoline otherwise) or, for the host thread, to run.
func (t *Thread) finish(panicked bool, val any) {
	e := t.eng
	e.finishThread(t, panicked, val)
	if t.firstPark {
		// Finished without ever parking: the starter holds the baton and is
		// blocked in startThread's resume call. The completion is accounted
		// (we are serialized with the starter), so fall out.
		return
	}
	// This thread was the last granted: it holds the baton and drives the
	// next scheduling decision.
	e.grant(e.driveStep())
}

// park parks the thread on the request in t.req and returns the granted
// response.
//
// The first park of a coroutine thread's life yields straight back to the
// starter (blocked in startThread). Every other park means this thread
// was the last one granted, so it still holds the baton: it runs the
// scheduling decision inline. If the strategy grants this thread again,
// the response returns without any coroutine switch. Otherwise the grant
// is published in engine state, and the host thread trampolines until it
// is granted again, while a coroutine thread yields to the host.
func (t *Thread) park() response {
	e := t.eng
	if t.firstPark {
		t.firstPark = false
	} else {
		t2, res, ended := e.driveStep()
		if !ended && t2 == t {
			return res
		}
		e.grant(t2, res, ended)
		if t.host {
			if e.trampoline(t) {
				// The run ended while this thread was parked: unwind its
				// body on the host, so user-code defers still run.
				panic(killedError{})
			}
			return e.grantRes
		}
	}
	if !t.yield(struct{}{}) {
		// Runner.Close stopped the coroutine while parked mid-run. Close
		// only runs between runs (teardown unwinds mid-run threads first),
		// but iter.Pull surfaces a stop as a false yield: unwind like a
		// kill so user-code defers still run.
		panic(killedError{})
	}
	if e.killing {
		panic(killedError{})
	}
	return e.grantRes
}

// teardown unwinds every thread coroutine still parked inside its
// ThreadFunc (aborted runs, deadlocks, StopOnBug) so no coroutine retains
// user-code frames across runs. Finished threads are already parked on
// their between-runs yield and need nothing, and the host thread was
// unwound on the host when the run ended. Each resume below returns when
// the killed thread has finished unwinding its user-code stack and parked
// between runs, so the run's pooled state is quiescent when releaseRun
// executes.
func (e *Engine) teardown() {
	e.killing = true
	for _, t := range e.threads {
		if t.started && !t.finished && !t.host {
			t.resume()
		}
	}
	e.killing = false
}

// Close releases the Runner's pooled thread coroutines. It must not be
// called concurrently with Run; after Close the Runner is dead (Run
// panics). Close is idempotent.
func (r *Runner) Close() {
	e := &r.e
	if e.closed {
		return
	}
	e.closed = true
	for _, t := range e.threads[:cap(e.threads)] {
		if t != nil && t.live {
			t.live = false
			// stop resumes the coroutine parked on its between-runs
			// yield; the yield returns false and coroLoop returns.
			// iter.Pull's stop is synchronous: it returns only after
			// the coroutine has exited.
			t.stop()
		}
	}
}
