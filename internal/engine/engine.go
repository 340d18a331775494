// Package engine executes weak-memory test programs under the control of a
// pluggable testing strategy. It is the repository's substitute for the
// C11Tester framework the paper builds on: threads are fully serialized,
// every read consults the strategy for which coherence-legal write to read
// from, and thread views / message bags implement the paper's Algorithm 2
// semantics for the C11 memory model of §4.
package engine

import (
	"fmt"
	"math/rand"
	"time"

	"pctwm/internal/coverage"
	"pctwm/internal/memmodel"
	"pctwm/internal/race"
	"pctwm/internal/telemetry"
)

// Engine holds the mutable state of one execution. It is embedded in a
// Runner and reset between runs; use Run or Runner for the public API.
type Engine struct {
	prog   *Program
	strat  Strategy
	opts   Options
	rng    *rand.Rand
	rngSrc xoshiro // backing source of rng; cheap O(1) re-seed per run

	// views and clocks recycle the halves of the per-write bags across
	// this engine's executions. They are engine-local (not package-global)
	// so their freelists need no synchronization: all accesses happen
	// under the scheduler baton. They are kept apart so that clock arrays
	// stay sized to the thread count, not to the largest view.
	views  memmodel.ViewArena
	clocks memmodel.ViewArena

	locs []location // index = Loc-1

	threads []*Thread // index = ThreadID-1; a shell keeps its index across runs
	nextTID memmodel.ThreadID

	// Scheduler state (all accesses serialized by the baton, see
	// sched.go). The parking thread publishes the next grant in
	// granted/grantRes; the trampoline resumes granted, which reads
	// grantRes. endRun tells the trampoline the run is over, and turns
	// teardown resumes into unwinds; start is when the run began; startFn
	// carries the ThreadFunc into a coroutine being started.
	granted  *Thread
	grantRes response
	endRun   bool
	start    time.Time
	startFn  ThreadFunc
	closed   bool

	// model is the active memory-model backend (Options.Model): the
	// semantics of every memory operation — candidate sets, view/buffer
	// updates, fence and RMW rules — while the engine keeps the
	// model-agnostic machinery (scheduling, threads, mo bookkeeping,
	// events, recording, telemetry).
	model modelBackend

	// initWarm marks the static init state as cached from a previous run:
	// the first len(prog.locs) location slots still hold their single init
	// message (and root its view), so initMemory skips the rebuild
	// entirely (the state is identical for every run of the same program).
	initWarm bool
	// root is the view and clock root threads inherit from the
	// initialization writes (built by rc11's initStatic, empty under other
	// models); its backing arrays persist across runs.
	root viewClock

	nextEventID memmodel.EventID
	outcome     Outcome
	rec         *recordedRun // nil unless Options.Record
	det         *race.Detector

	// recLen is the previous run's Recording slice lengths (events, SC
	// order, spawn and join links), which size the next run's slices.
	// staticNames is the LocNames map shared by every recorded run whose
	// locations are all static; invalidateInit drops it.
	recLen      [4]int
	staticNames map[memmodel.Loc]string

	// scratch buffers reused across steps to keep the hot loop
	// allocation-free.
	evScratch  memmodel.Event
	enabledBuf []PendingOp
	candBuf    []ReadCandidate

	// fvCache interns FinalValues maps per distinct final state (see
	// finalValues); fvScratch is the per-run value-vector key buffer.
	fvCache   []fvEntry
	fvScratch []memmodel.Value

	stepsSinceProgress int
	stopped            bool

	// tel caches Options.Telemetry (nil = telemetry off: one predictable
	// branch per hook, no allocation). lastGranted is the thread the
	// previous grant ran, classifying each grant as a handoff (thread
	// switch) or a same-thread grant; it is derived purely from the
	// schedule, so the counts are bit-identical across worker counts.
	tel         *telemetry.EngineCounters
	lastGranted *Thread

	// cov is the behavior-fingerprint accumulator (Options.Coverage);
	// nil when coverage is off, so the finishEvent hook costs one
	// predictable branch. Its scratch is reused across runs.
	cov *coverage.Accumulator

	// ctxDone is Options.Context's Done channel, refreshed per run by
	// reset. It gates the hot path: without a Context, driveStep pays one
	// nil check and never touches a channel.
	ctxDone <-chan struct{}
}

// watchdogInterval is how many scheduler grants pass between cancellation
// polls (power of two; the poll is `steps&watchdogMask==0`). 64 keeps the
// poll off the per-event profile while bounding the overrun of a canceled
// run to tens of microseconds of stepping.
const (
	watchdogInterval = 64
	watchdogMask     = watchdogInterval - 1
)

const (
	// spinThreshold is the number of consecutive identical loads after
	// which the strategy's OnSpin fires.
	spinThreshold = 12
	// stallWindow is the number of scheduler steps without a write, RMW or
	// thread completion after which OnSpin fires regardless of the spin
	// pattern.
	stallWindow = 256
	// maxRaces caps the number of reported races.
	maxRaces = 16
)

// fvEntry is one interned FinalValues map: the value vector (in static
// location order) it was built from, its FNV-1a hash (short-circuits the
// lookup scan), and the shared map.
type fvEntry struct {
	hash uint64
	vals []memmodel.Value
	m    map[string]memmodel.Value
}

// fvHash is FNV-1a over the value vector. Collisions are harmless: the
// full vector is still compared on a hash match.
func fvHash(vals []memmodel.Value) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

// Runner executes a program repeatedly, reusing location tables, message
// bags, thread shells, thread coroutines and scratch buffers between runs
// so that a steady-state trial loop allocates near-zero memory per run.
//
// A Runner is bound to one immutable Program and one Options value. It is
// NOT safe for concurrent use; for parallel trials give each worker its own
// Runner (see internal/harness.RunCampaign).
//
// A Runner pools thread coroutines between runs (parked on their
// between-runs yield). Call Close when done with a Runner to release them;
// a dropped unclosed Runner pins its pooled coroutines (one fewer than the
// most threads a run created) until process exit.
//
// Determinism guarantee: for a fixed program, strategy and seed, a run
// produces the same Outcome (and byte-identical Recording) whether the
// Runner is fresh or has executed any number of prior runs, and whichever
// campaign worker executes the trial.
type Runner struct {
	e Engine
}

// NewRunner prepares a reusable Runner for prog. The program is sealed on
// first use exactly as with Run.
func NewRunner(prog *Program, opts Options) *Runner {
	if prog.NumThreads() == 0 {
		panic(fmt.Sprintf("pctwm: program %q has no threads", prog.Name()))
	}
	prog.sealed.Store(true)
	r := &Runner{}
	e := &r.e
	e.prog = prog
	e.opts = opts.withDefaults()
	e.model = newBackend(e, e.opts.Model)
	if e.opts.Model != ModelRC11 {
		// The vector-clock race detector is defined over the rc11 view
		// machine's happens-before; other backends do not maintain clocks.
		e.opts.DetectRaces = false
	}
	return r
}

// Program returns the program this Runner executes.
func (r *Runner) Program() *Program { return r.e.prog }

// Run executes the program once under strat with the given random seed and
// returns the outcome. The seed drives only the strategy's decisions; the
// engine itself is deterministic. The returned Outcome does not alias
// Runner state and stays valid across subsequent runs.
//
// A panic of a strategy callback or an engine invariant escapes Run after
// the run's teardown has restored the Runner: its next run equals a fresh
// Runner's.
func (r *Runner) Run(strat Strategy, seed int64) *Outcome {
	e := &r.e
	if e.closed {
		panic("pctwm: Runner.Run called after Close")
	}
	e.reset(strat, seed)
	e.run()
	e.finalize()
	if rr := e.rec; rr != nil {
		rr.out = e.outcome
		e.outcome = Outcome{}
		return &rr.out
	}
	out := e.outcome
	e.outcome = Outcome{}
	return &out
}

// recordedRun is a recorded run's Recording, the Outcome it is returned
// in and room for its spawn links, in one allocation.
type recordedRun struct {
	Recording
	out   Outcome
	links [inlineSpawnLinks]SpawnLink
}

// inlineSpawnLinks is how many spawn links a recorded run keeps in its
// recordedRun: one per root thread of the largest benchmark, application
// or litmus test. A Runner whose runs record more keeps them on the heap.
const inlineSpawnLinks = 4

// Run executes prog once under strat with the given random seed and
// options, returning the outcome. It is a one-shot wrapper over Runner
// (including goroutine cleanup); repeated-trial loops should create a
// Runner (or use the harness) to amortize setup.
func Run(prog *Program, strat Strategy, seed int64, opts Options) *Outcome {
	r := NewRunner(prog, opts)
	defer r.Close()
	return r.Run(strat, seed)
}

// reset prepares the engine for a fresh execution. Location tables, thread
// shells and scratch buffers retained by the previous run are reused;
// everything observable starts from the initial state.
func (e *Engine) reset(strat Strategy, seed int64) {
	e.strat = strat
	e.rngSrc.Seed(seed)
	if e.rng == nil {
		e.rng = rand.New(&e.rngSrc)
	}
	e.nextTID = 0
	e.model.resetRun()
	e.nextEventID = 0
	e.outcome = Outcome{}
	e.rec = nil
	if e.opts.Record {
		e.rec = new(recordedRun)
		e.rec.Recording = Recording{
			Model:      e.opts.Model,
			Events:     make([]memmodel.Event, 0, e.recLen[0]),
			SCOrder:    make([]memmodel.EventID, 0, e.recLen[1]),
			SpawnLinks: e.rec.links[:0],
			JoinLinks:  make([]JoinLink, 0, e.recLen[3]),
		}
		if e.recLen[2] > len(e.rec.links) {
			e.rec.SpawnLinks = make([]SpawnLink, 0, e.recLen[2])
		}
	}
	if e.opts.DetectRaces {
		if e.det == nil {
			e.det = race.NewDetector(e.locName, maxRaces)
		} else {
			e.det.Reset()
		}
	}
	e.stepsSinceProgress = 0
	e.stopped = false
	e.tel = e.opts.Telemetry
	if e.tel != nil && e.tel.Model == "" {
		e.tel.Model = e.opts.Model
	}
	e.lastGranted = nil
	if e.opts.Coverage {
		if e.cov == nil {
			e.cov = new(coverage.Accumulator)
		}
		e.cov.Reset(e.opts.Model, len(e.prog.locs))
	}
	e.ctxDone = nil
	if e.opts.Context != nil {
		e.ctxDone = e.opts.Context.Done()
	}
}

// checkInterrupt polls the run's cancellation context (called from
// driveStep every watchdogInterval grants). It reports true when the run
// must end, having recorded a CanceledError.
func (e *Engine) checkInterrupt() bool {
	select {
	case <-e.ctxDone:
		e.outcome.Canceled = true
		e.setRunError(&RunError{Kind: CanceledError, Msg: "run canceled: " + e.opts.Context.Err().Error()})
		return true
	default:
		return false
	}
}

// finalize snapshots everything the Outcome needs from engine state, then
// releases the run's pooled resources (message bags, location tables,
// thread shells) back to their arenas.
func (e *Engine) finalize() {
	if e.rec != nil {
		e.outcome.Recording = &e.rec.Recording
		e.rec.LocNames = e.locNames()
		e.recLen = [4]int{len(e.rec.Events), len(e.rec.SCOrder), len(e.rec.SpawnLinks), len(e.rec.JoinLinks)}
	}
	if e.det != nil {
		// Copy: the detector's race slice is reused by the next run's Reset,
		// while Outcomes must stay valid indefinitely.
		if rs := e.det.Races(); len(rs) > 0 {
			e.outcome.Races = append([]race.Race(nil), rs...)
		}
	}
	e.outcome.FinalValues = e.finalValues()
	if e.cov != nil {
		// The fingerprint's final-value vector mirrors finalValues: the
		// mo-maximal value of every static location in declaration
		// order (zero for the never-written slots of a cut-short run).
		for i := range e.prog.locs {
			var v memmodel.Value
			if i < len(e.locs) && len(e.locs[i].mo) > 0 {
				v = e.model.finalValue(i, &e.locs[i])
			}
			e.cov.PushFinal(v)
		}
		e.outcome.BehaviorFP = e.cov.Finalize()
	}
	if e.tel != nil {
		e.tel.Trials++
	}
	e.releaseRun()
}

// releaseRun drains the per-run pooled state. Message bags go back to the
// arenas; locations and thread shells are truncated in place so the next
// run reuses their backing storage (including each shell's parked
// coroutine).
func (e *Engine) releaseRun() {
	// Static locations stay warm (initWarm): their single init message is
	// identical in every run of the same program, so only the writes the
	// run itself performed are released. Dynamically allocated locations
	// are drained completely.
	keep := 0
	if e.initWarm {
		keep = len(e.prog.locs)
	}
	for i := range e.locs {
		loc := &e.locs[i]
		base := 0
		if i < keep {
			base = 1
		}
		for j := base; j < len(loc.mo); j++ {
			e.release(&loc.mo[j].bag)
		}
		loc.mo = loc.mo[:base]
		if i >= keep {
			loc.name = ""
			loc.allocName = ""
		}
	}
	e.locs = e.locs[:keep]
	e.threads = e.threads[:0]
}

// locNames returns the run's LocNames map. A run that allocated no
// locations shares the Runner's one map of the static names; a run with
// dynamic locations gets a map of its own.
func (e *Engine) locNames() map[memmodel.Loc]string {
	static := len(e.locs) == len(e.prog.locs)
	if static && e.staticNames != nil {
		return e.staticNames
	}
	names := make(map[memmodel.Loc]string, len(e.locs))
	for i := range e.locs {
		l := memmodel.Loc(i + 1)
		names[l] = e.locs[i].displayName(l)
	}
	if static {
		e.staticNames = names
	}
	return names
}

func (e *Engine) locName(l memmodel.Loc) string {
	if i := int(l) - 1; i >= 0 && i < len(e.locs) {
		return e.locs[i].displayName(l)
	}
	return fmt.Sprintf("x%d", l)
}

// startRoots creates the root threads, starts all but the first (the host
// thread, returned for the caller to run) on their coroutines and
// announces them to the strategy. The caller holds the baton.
func (e *Engine) startRoots() *Thread {
	e.initMemory()

	// Root threads inherit the init thread's view (the spawn of root
	// threads synchronizes with initialization).
	lastInit := memmodel.NoEvent
	if e.nextEventID > 0 {
		lastInit = e.nextEventID - 1
	}
	nRoots := len(e.prog.threads)
	for i, rt := range e.prog.threads {
		t := e.newThread(rt.name, nil, e.root)
		if e.rec != nil {
			e.rec.SpawnLinks = append(e.rec.SpawnLinks, SpawnLink{From: lastInit, Child: t.id})
		}
		if i > 0 {
			e.startThread(t, rt.fn)
		}
	}

	e.strat.Begin(ProgramInfo{
		Name:           e.prog.Name(),
		NumRootThreads: nRoots,
		Telemetry:      e.tel,
		Rand:           e.rng,
	}, e.rng)
	for i := 0; i < nRoots; i++ {
		e.strat.OnThreadStart(e.threads[i].id, memmodel.InitThread)
	}
	e.threads[0].started = true
	return e.threads[0]
}

// driveStep performs one scheduling decision: it collects the enabled
// operations, asks the strategy, applies the chosen thread's pending
// operation and returns the thread to wake together with its response.
// ended is true when the run is over (deadlock, step budget, bug with
// StopOnBug) and no thread should be woken. The caller must hold the
// baton.
func (e *Engine) driveStep() (granted *Thread, res response, ended bool) {
	if e.stopped || e.ctxDone != nil && e.outcome.Steps&watchdogMask == 0 && e.checkInterrupt() {
		return nil, response{}, true
	}
	enabled := e.enabledOps()
	if len(enabled) == 0 {
		if e.liveThreads() > 0 {
			e.outcome.Deadlocked = true
			e.setRunError(&RunError{Kind: DeadlockError, Msg: e.deadlockMsg()})
		}
		return nil, response{}, true
	}
	if e.outcome.Steps >= e.opts.MaxSteps {
		e.outcome.Aborted = true
		e.setRunError(&RunError{
			Kind: StepLimitError,
			Msg:  fmt.Sprintf("step limit (%d) exceeded", e.opts.MaxSteps),
		})
		return nil, response{}, true
	}
	tid := e.strat.NextThread(enabled)
	t := e.thread(tid)
	if t == nil || !e.isEnabled(t) {
		panic(fmt.Sprintf("pctwm: strategy %s chose non-enabled thread %d", e.strat.Name(), tid))
	}
	if e.tel != nil {
		if t == e.lastGranted {
			e.tel.SameThreadGrants++
		} else {
			e.tel.Handoffs++
		}
		e.lastGranted = t
	}
	e.outcome.Steps++
	e.stepsSinceProgress++
	res = e.apply(t)
	if e.stopped {
		return nil, response{}, true
	}
	if e.stepsSinceProgress >= stallWindow {
		e.stepsSinceProgress = 0
		e.strat.OnSpin(tid)
	}
	return t, res, false
}

// setRunError records the first abnormal-termination cause of the run.
func (e *Engine) setRunError(err *RunError) {
	if e.outcome.Err == nil {
		e.outcome.Err = err
	}
}

// deadlockMsg renders the blocked live threads deterministically
// (ascending thread id).
func (e *Engine) deadlockMsg() string {
	msg := "deadlock: no enabled thread among"
	for _, t := range e.threads {
		if t.started && !t.finished {
			msg += fmt.Sprintf(" t%d", t.id)
		}
	}
	return msg
}

// initMemory creates the initialization writes (thread 0): one message
// per declared location at stamp 1, to which the backend attaches its
// state (initStatic).
func (e *Engine) initMemory() {
	k := len(e.prog.locs)
	if e.initWarm && len(e.locs) != k {
		// The program's location table changed between runs (programs are
		// not supposed to be mutated after NewRunner, but stay safe):
		// discard the cached init state and rebuild cold.
		e.invalidateInit()
	}
	if !e.initWarm {
		for i, d := range e.prog.locs {
			loc := e.pushLoc()
			loc.name = d.name
			m := loc.appendSlot()
			m.val, m.tid, m.event = d.init, memmodel.InitThread, memmodel.EventID(i)
		}
		e.model.initStatic()
		e.initWarm = true
	}
	// Initialization events bypass the strategy and the race detector; only
	// the event-id counter advances (ids feed the messages and must stay
	// identical across runs and options). Recorded runs additionally replay
	// the init events into the recording.
	e.nextEventID = memmodel.EventID(k)
	if e.rec != nil {
		e.recordInitEvents()
	}
}

// recordInitEvents appends the k initialization write events to the
// recording (ids 0..k-1, matching the cached init messages).
func (e *Engine) recordInitEvents() {
	for i, d := range e.prog.locs {
		ev := memmodel.Event{
			ID: memmodel.EventID(i), TID: memmodel.InitThread, Index: i,
			Label: memmodel.Label{
				Kind:  memmodel.KindWrite,
				Order: memmodel.Relaxed,
				Loc:   memmodel.Loc(i + 1),
				WVal:  d.init,
			},
			ReadsFrom: memmodel.NoEvent,
			Stamp:     1,
		}
		e.record(&ev)
	}
}

// invalidateInit releases the cached static init state (see initWarm).
func (e *Engine) invalidateInit() {
	for i := range e.locs {
		loc := &e.locs[i]
		for j := range loc.mo {
			e.release(&loc.mo[j].bag)
		}
		loc.mo = loc.mo[:0]
		loc.name = ""
		loc.allocName = ""
	}
	e.locs = e.locs[:0]
	e.initWarm = false
	e.staticNames = nil
}

// pushLoc extends the location table by one slot, reusing the slot's
// modification-order backing array from a previous run when available.
func (e *Engine) pushLoc() *location {
	if len(e.locs) < cap(e.locs) {
		e.locs = e.locs[:len(e.locs)+1]
	} else {
		e.locs = append(e.locs, location{})
	}
	return &e.locs[len(e.locs)-1]
}

func (e *Engine) thread(tid memmodel.ThreadID) *Thread {
	if i := int(tid) - 1; i >= 0 && i < len(e.threads) {
		return e.threads[i]
	}
	return nil
}

// newThread appends the next thread, reusing the shell an earlier run
// left at its index (index 0 holds the host thread's, with no coroutine).
func (e *Engine) newThread(name string, parent *Thread, view viewClock) *Thread {
	e.nextTID++
	n := len(e.threads)
	if n == cap(e.threads) {
		e.threads = append(e.threads, nil)
	}
	e.threads = e.threads[:n+1]
	if e.threads[n] == nil {
		e.threads[n] = &Thread{eng: e, host: n == 0}
	}
	t := e.threads[n]
	t.recycle()
	t.id = e.nextTID
	t.name = name
	t.parent = parent
	t.cur.copyFrom(view)
	return t
}

func (e *Engine) finishThread(t *Thread, panicked bool, panicVal any) {
	t.finished = true
	e.model.onThreadFinish(t)
	e.stepsSinceProgress = 0
	if panicked {
		msg := fmt.Sprintf("thread %s (t%d) crashed: %v", t.Name(), t.id, panicVal)
		e.reportBug(msg)
		e.setRunError(&RunError{Kind: PanicError, TID: t.id, Msg: msg})
	}
}

func (e *Engine) reportBug(msg string) {
	e.outcome.BugHit = true
	e.outcome.BugMessages = append(e.outcome.BugMessages, msg)
	if e.opts.StopOnBug {
		e.stopped = true
	}
}

func (e *Engine) isEnabled(t *Thread) bool {
	if !t.started || t.finished {
		return false
	}
	// A thread parked on Join is blocked until its target terminates
	// (Join checked that the target is a thread of this run).
	return t.req.code != opJoin || e.thread(t.req.joinTID).finished
}

// enabledOps collects the pending operations of all enabled threads in
// ascending thread-id order (the threads slice is in creation = id order).
// Each thread's PendingOp was precomputed when it parked (Thread.submit),
// so collecting is a plain copy loop. The returned slice aliases an engine
// scratch buffer: strategies must not retain it across calls.
func (e *Engine) enabledOps() []PendingOp {
	ops := e.enabledBuf[:0]
	for _, t := range e.threads {
		if e.isEnabled(t) {
			ops = append(ops, t.pend)
		}
	}
	e.enabledBuf = ops
	return ops
}

func (e *Engine) liveThreads() int {
	n := 0
	for _, t := range e.threads {
		if t.started && !t.finished {
			n++
		}
	}
	return n
}

// newEvent fills the engine's event scratch slot and returns it. At most
// one event is under construction at a time (the execution is serialized
// and every exec path finishes its event before starting another), so a
// single scratch slot avoids a per-event heap allocation.
func (e *Engine) newEvent(tid memmodel.ThreadID, index int, lab memmodel.Label) *memmodel.Event {
	e.evScratch = memmodel.Event{
		ID:        e.nextEventID,
		TID:       tid,
		Index:     index,
		Label:     lab,
		ReadsFrom: memmodel.NoEvent,
	}
	e.nextEventID++
	return &e.evScratch
}

func (e *Engine) record(ev *memmodel.Event) {
	if e.rec == nil {
		return
	}
	e.rec.Events = append(e.rec.Events, *ev)
	if ev.Label.Order.IsSC() && ev.Label.Kind != memmodel.KindAssert {
		e.rec.SCOrder = append(e.rec.SCOrder, ev.ID)
	}
}

// finalValues builds the Outcome's FinalValues map. Programs reach only a
// handful of distinct final states across a trial campaign, so the maps
// are interned per Runner: runs ending in an already-seen state share the
// cached (read-only, see Outcome.FinalValues) map instead of rebuilding
// it — map construction was the dominant per-run allocation.
func (e *Engine) finalValues() map[string]memmodel.Value {
	buf := e.fvScratch[:0]
	miss := false
	for i := range e.prog.locs {
		if i < len(e.locs) && len(e.locs[i].mo) > 0 {
			buf = append(buf, e.model.finalValue(i, &e.locs[i]))
		} else {
			miss = true // keep the cache key aligned with map contents
			break
		}
	}
	e.fvScratch = buf
	var h uint64
	if !miss {
		h = fvHash(buf)
	outer:
		for i := range e.fvCache {
			ent := &e.fvCache[i]
			if ent.hash != h || len(ent.vals) != len(buf) {
				continue
			}
			for j := range buf {
				if ent.vals[j] != buf[j] {
					continue outer
				}
			}
			return ent.m
		}
	}
	vals := make(map[string]memmodel.Value, len(e.prog.locs))
	for i := range e.prog.locs {
		if i < len(e.locs) && len(e.locs[i].mo) > 0 {
			vals[e.locs[i].name] = e.model.finalValue(i, &e.locs[i])
		}
	}
	if !miss && len(e.fvCache) < maxFinalValueCache {
		e.fvCache = append(e.fvCache, fvEntry{
			hash: h,
			vals: append([]memmodel.Value(nil), buf...),
			m:    vals,
		})
	}
	return vals
}

// maxFinalValueCache bounds the per-Runner interning cache of FinalValues
// maps: a campaign whose program reaches more distinct final states than
// this (or that keeps a Runner hot across many configurations) builds
// fresh maps for the overflow instead of growing Runner-retained memory
// without limit. The cached entries' hashes keep the lookup scan cheap
// even when every run misses.
const maxFinalValueCache = 64
