package engine

// Direct-handoff scheduler.
//
// The engine serializes simulated threads with a baton: exactly one
// goroutine — the host (run) or one thread coroutine — touches
// engine state at a time. Threads run on coroutines (iter.Pull, backed by
// the runtime's coroswitch), so a handoff is a direct goroutine switch
// that never enters the Go scheduler: no run queue, no sudog, no timer
// check, no OS-thread wakeup. The yielding thread runs the strategy
// decision inline on its own stack (Strategy state is engine-serialized,
// so no locking is needed), publishes the grant in engine state and
// yields; the host trampoline resumes the granted thread:
//
//	yielding thread ──driveStep()──► e.granted = t2 ──yield──► host
//	                                                            │
//	                                              t2.resume() ──┘
//	                                                            ▼
//	                                                granted thread resumes
//
// Two coroswitches per handoff (~½ the cost of a channel park/wake pair),
// zero when the strategy grants the same thread again, and no standing
// scheduler goroutine during stepping. Thread coroutines are pooled across
// runs: when a run ends, each shell's coroutine parks on its between-runs
// yield, so the next run reuses the coroutine (and its already-grown
// stack) instead of paying goroutine creation per run. Runner.Close
// releases the pool.
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

// run executes one run. It is the host: it starts the root threads,
// performs the first scheduling decision, and then trampolines — it
// resumes whichever thread the last decision granted until a decision
// ends the run. Duration covers initialization + stepping; teardown
// (unwinding parked threads after aborted runs) is excluded so per-event
// numbers do not depend on how a run ended.
func (e *Engine) run() {
	defer e.teardown()
	start := time.Now()
	defer func() { e.outcome.Duration = time.Since(start) }()

	e.endRun = false
	e.startRoots()

	t, res, ended := e.driveStep()
	if ended {
		return
	}
	e.granted, e.grantRes = t, res
	for !e.endRun {
		e.granted.resume()
	}
}

// startThread hands fn to t's pooled coroutine (creating it on first
// use of the shell) and resumes it; the resume call returns when the
// thread parks on its first operation or finishes. The caller holds the
// baton; the new thread's first yield returns control here (iter.Pull
// yields return to the most recent resumer).
func (e *Engine) startThread(t *Thread, fn ThreadFunc) {
	t.started = true
	if !t.live {
		t.live = true
		t.resume, t.stop = pullResume(t.coroLoop)
	}
	e.startFn = fn
	t.resume()
	e.startFn = nil
}

// pullResume adapts iter.Pull's next to a plain resume function.
func pullResume(seq iter.Seq[struct{}]) (resume func(), stop func()) {
	next, stop := iter.Pull(seq)
	return func() { next() }, stop
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
		if r != nil {
			if _, ok := r.(killedError); ok {
				// Torn down mid-run: fall back to coroLoop, whose
				// between-runs yield returns control to the teardown loop.
				return
			}
		}
		t.finish(r != nil, r)
	}()
	fn(t)
}

// finish is the completion protocol of a thread whose ThreadFunc
// returned or panicked with a user error. It runs inside the coroutine;
// falling out parks the coroutine on its between-runs yield, handing
// control back to the resumer (the starter for never-parked threads, the
// host trampoline otherwise).
func (t *Thread) finish(panicked bool, val any) {
	e := t.eng
	e.finishThread(t, panicked, val)
	if t.firstPark {
		// Finished without ever parking: the starter holds the baton and is
		// blocked in startThread's resume call. The completion is accounted
		// (we are serialized with the starter), so fall out.
		return
	}
	// This coroutine was the last granted: it holds the baton and drives
	// the next scheduling decision before parking; the host resumes the
	// granted thread.
	if e.stopped {
		e.endRun = true
		return
	}
	t2, res, ended := e.driveStep()
	if ended {
		e.endRun = true
		return
	}
	e.granted, e.grantRes = t2, res
}

// park parks the thread on the request in t.req and returns the granted
// response.
//
// The first park of a thread's life yields straight back to the starter
// (blocked in startThread). Every later park means this thread was
// the last one granted, so it still holds the baton: it runs the
// scheduling decision inline. If the strategy grants this thread again,
// the response returns without any coroutine switch; otherwise the grant
// is published in engine state and the thread yields to the host, which
// resumes the granted thread.
func (t *Thread) park() response {
	e := t.eng
	if t.firstPark {
		t.firstPark = false
	} else {
		t2, res, ended := e.driveStep()
		if ended {
			e.endRun = true
		} else if t2 == t {
			return res
		} else {
			e.granted, e.grantRes = t2, res
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
// their between-runs yield and need nothing. Each resume below returns
// when the killed thread has finished unwinding its user-code stack and
// parked between runs, so the run's pooled state is quiescent when
// releaseRun executes.
func (e *Engine) teardown() {
	e.killing = true
	for _, t := range e.threads {
		if t.started && !t.finished {
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
	shutdown := func(ts []*Thread) {
		for _, t := range ts {
			if t.live {
				t.live = false
				// stop resumes the coroutine parked on its between-runs
				// yield; the yield returns false and coroLoop returns.
				// iter.Pull's stop is synchronous: it returns only after
				// the coroutine has exited.
				t.stop()
			}
		}
	}
	shutdown(e.freeThreads)
	shutdown(e.threads) // defensive: empty between runs
}
