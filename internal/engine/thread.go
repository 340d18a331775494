package engine

import (
	"fmt"

	"pctwm/internal/memmodel"
)

// ThreadFunc is the body of a simulated thread. It runs on its own
// coroutine (the first root thread on Run's goroutine) but is fully
// serialized by the engine: at most one thread makes progress at a time,
// and every shared-memory access goes through the Thread handle.
type ThreadFunc func(t *Thread)

// ThreadHandle identifies a spawned thread for Join.
type ThreadHandle struct {
	tid memmodel.ThreadID
}

// TID returns the thread id of the spawned thread.
func (h *ThreadHandle) TID() memmodel.ThreadID { return h.tid }

// killedError is panicked inside thread bodies when the engine tears an
// execution down early (bug found, step limit, ...).
type killedError struct{}

func (killedError) Error() string { return "pctwm: execution torn down" }

// Thread is a simulated thread's access point to the weak memory engine.
// All methods may only be called from within the ThreadFunc this handle was
// passed to.
type Thread struct {
	eng  *Engine
	id   memmodel.ThreadID
	name string
	// parent backs lazy naming of spawned threads: "parent.id" strings are
	// formatted on first use (diagnostics only), never on the spawn hot
	// path. Valid for the duration of one run.
	parent *Thread

	// req is the parked request (POD only); ext carries the
	// pointer-bearing parameters of rare requests; pend is the request's
	// strategy-facing summary, computed once at post time instead of on
	// every scheduling decision.
	req  request
	ext  reqExt
	pend PendingOp

	// host marks the first root thread, whose body runs on the goroutine
	// that called Run; every other body runs on a coroutine (iter.Pull,
	// see sched.go). resume switches into it, yield back to the most
	// recent resumer, and stop terminates it (Runner.Close): direct
	// goroutine switches that never enter the Go scheduler. live marks the
	// shell's pooled coroutine (parked on its between-runs yield).
	host   bool
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	live   bool

	// firstPark marks the one park in a coroutine thread's life that must
	// report to the starter instead of driving the scheduler itself.
	// parked marks the thread while it is parked in submit (see runBody).
	firstPark bool
	parked    bool

	// rc11 memory-model state (paper §5.1 / Algorithm 2), each view with
	// its happens-before clock; only cur's clock, ticked per event, is
	// non-empty under other backends
	cur      viewClock // thread view: latest observed write per location
	acqStash viewClock // bags stashed by relaxed reads, claimed by F⊒acq
	relFence viewClock // view snapshot at the last release fence

	// tso memory-model state: the thread's FIFO store buffer (empty under
	// other backends)
	tsoBuf []tsoEntry

	// bookkeeping
	nextIndex int // po index of the next event
	finished  bool
	started   bool

	// spin detection
	spinLoc   memmodel.Loc
	spinVal   memmodel.Value
	spinCount int
}

// ID returns this thread's identifier (1-based; 0 is the init pseudo-thread).
func (t *Thread) ID() memmodel.ThreadID { return t.id }

// Name returns the thread's diagnostic name. Spawned threads are named
// lazily ("parent.id") so the spawn hot path never formats strings.
func (t *Thread) Name() string {
	if t.name == "" && t.parent != nil {
		t.name = fmt.Sprintf("%s.%d", t.parent.Name(), t.id)
	}
	return t.name
}

// recycle readies a thread shell from a previous run for reuse. The pooled
// coroutine and the views'/clocks' backing arrays are retained.
func (t *Thread) recycle() {
	t.req = request{}
	t.ext = reqExt{}
	t.pend = PendingOp{}
	t.name = ""
	t.parent = nil
	t.cur.reset()
	t.acqStash.reset()
	t.relFence.reset()
	t.tsoBuf = t.tsoBuf[:0]
	t.nextIndex = 0
	t.finished = false
	t.started = false
	t.parked = false
	t.resetSpin()
}

// submit parks the thread on the request stored in t.req and returns the
// engine's response. It also caches the request's strategy-facing
// PendingOp summary, so enabledOps does not recompute it on every
// scheduling decision while the thread stays parked.
func (t *Thread) submit() response {
	if t.parked {
		// A deferred call's operation as the thread unwinds from a park
		// makes no decision. After the run's end it unwinds the call too;
		// while a decision's panic unwinds the thread it is not performed,
		// so that the panic escapes with its own value (runBody).
		if t.eng.endRun {
			panic(killedError{})
		}
		return response{}
	}
	if t.req.code <= opExchange && uint(t.req.loc-1) >= uint(len(t.eng.locs)) {
		panic(fmt.Sprintf("pctwm: access to invalid location %d", t.req.loc))
	}
	kind := t.req.pendingKind()
	t.pend = PendingOp{
		TID:   t.id,
		Index: t.nextIndex,
		Kind:  kind,
		Order: t.req.order,
		Loc:   t.req.loc,
		Comm:  t.eng.model.commSink(kind, t.req.order),
	}
	t.parked = true
	res := t.park()
	t.parked = false
	return res
}

// Load performs an atomic (or, with memmodel.NonAtomic, a plain) load of
// loc with the given memory order and returns the value read. Which write
// the load reads from is decided by the active testing strategy among the
// coherence-legal candidates.
func (t *Thread) Load(loc memmodel.Loc, ord memmodel.Order) memmodel.Value {
	t.req = request{code: opLoad, loc: loc, order: ord}
	return t.submit().value
}

// Store performs an atomic (or plain) store of v to loc.
func (t *Thread) Store(loc memmodel.Loc, v memmodel.Value, ord memmodel.Order) {
	t.req = request{code: opStore, loc: loc, value: v, order: ord}
	t.submit()
}

// CAS is a strong compare-and-swap: if the modification-order-maximal value
// of loc equals expected the swap succeeds (an RMW event with order ordSucc);
// otherwise it fails with a read event of order ordFail that may observe any
// coherence-legal stale value different from expected. Returns the value
// observed and whether the swap succeeded.
func (t *Thread) CAS(loc memmodel.Loc, expected, desired memmodel.Value, ordSucc, ordFail memmodel.Order) (memmodel.Value, bool) {
	t.req = request{
		code: opCAS, loc: loc, expected: expected, value: desired,
		order: ordSucc, failOrder: ordFail,
	}
	res := t.submit()
	return res.value, res.ok
}

// CASWeak is a weak compare-and-swap: like CAS, but it may fail
// spuriously — the strategy may direct the operation to observe any
// coherence-legal write (possibly one carrying the expected value) without
// performing the exchange, as C11's compare_exchange_weak allows. Retry
// loops must therefore tolerate ok == false with an unchanged value.
func (t *Thread) CASWeak(loc memmodel.Loc, expected, desired memmodel.Value, ordSucc, ordFail memmodel.Order) (memmodel.Value, bool) {
	t.req = request{
		code: opCAS, loc: loc, expected: expected, value: desired,
		order: ordSucc, failOrder: ordFail, weak: true,
	}
	res := t.submit()
	return res.value, res.ok
}

// FetchAdd atomically adds delta to loc and returns the previous value.
func (t *Thread) FetchAdd(loc memmodel.Loc, delta memmodel.Value, ord memmodel.Order) memmodel.Value {
	t.req = request{code: opFetchAdd, loc: loc, value: delta, order: ord}
	return t.submit().value
}

// Exchange atomically replaces the value of loc and returns the previous one.
func (t *Thread) Exchange(loc memmodel.Loc, v memmodel.Value, ord memmodel.Order) memmodel.Value {
	t.req = request{code: opExchange, loc: loc, value: v, order: ord}
	return t.submit().value
}

// Fence issues a memory fence with the given order (Acquire, Release,
// AcqRel or SeqCst).
func (t *Thread) Fence(ord memmodel.Order) {
	if !ord.IsAcquire() && !ord.IsRelease() {
		panic(fmt.Sprintf("pctwm: fence with order %s", ord))
	}
	t.req = request{code: opFence, order: ord}
	t.submit()
}

// Alloc allocates n fresh contiguous shared locations initialized to init
// (missing entries default to zero) and returns the base location. The
// initializing writes are attributed to the allocating thread and are
// immediately part of its view, so freshly allocated memory behaves like
// C11 object construction before publication.
func (t *Thread) Alloc(name string, n int, init ...memmodel.Value) memmodel.Loc {
	if n <= 0 {
		panic(fmt.Sprintf("pctwm: Alloc(%q, %d): n must be positive", name, n))
	}
	t.req = request{code: opAlloc, allocN: n}
	t.ext.allocName = name
	t.ext.allocInit = init
	return t.submit().loc
}

// Spawn starts a new simulated thread running fn. The spawn synchronizes
// with the child's start (the child inherits the parent's view).
func (t *Thread) Spawn(fn ThreadFunc) *ThreadHandle {
	if fn == nil {
		panic("pctwm: Spawn(nil)")
	}
	t.req = request{code: opSpawn}
	t.ext.spawnFn = fn
	return t.submit().spawned
}

// Join blocks until the thread behind h terminates; the child's final view
// is merged into this thread's view (termination synchronizes with join).
// A handle that names no thread of this run (a zero ThreadHandle, or one
// kept from another run) is the joining thread's crash.
func (t *Thread) Join(h *ThreadHandle) {
	if h == nil {
		panic("pctwm: Join(nil)")
	}
	if t.eng.thread(h.tid) == nil {
		panic(fmt.Sprintf("pctwm: join of unknown thread %d", h.tid))
	}
	t.req = request{code: opJoin, joinTID: h.tid}
	t.submit()
}

// Assert records a bug when cond is false. The execution continues unless
// the engine was configured with StopOnBug.
func (t *Thread) Assert(cond bool, format string, args ...any) {
	if !cond {
		if len(args) == 0 {
			t.ext.assertMsg = format
		} else {
			t.ext.assertMsg = fmt.Sprintf(format, args...)
		}
	}
	t.req = request{code: opAssert, assertOK: cond}
	t.submit()
}

// Yield relinquishes the processor without performing a memory event. It
// still passes through the scheduler, so strategies may deprioritize
// yielding threads; it does not create an event.
func (t *Thread) Yield() {
	t.req = request{code: opYield}
	t.submit()
}
