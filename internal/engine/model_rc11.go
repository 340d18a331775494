package engine

import (
	"pctwm/internal/memmodel"
)

// rc11Backend is the default memory model: the paper's C11 view machine
// (Algorithm 2). Thread views, per-write message bags and release clocks
// implement the §4 semantics; the global SC view orders SC accesses. This
// is the pre-extraction engine code moved verbatim — for a fixed program,
// strategy and seed it produces bit-identical schedules, recordings and
// outcomes to the monolithic engine (see the rc11 golden-digest test in
// internal/harness).
type rc11Backend struct {
	e *Engine

	// global SC synchronization state (paper §4 (SC) axiom, operationally:
	// every SC event joins and then extends the global SC view).
	sc viewClock
}

func (b *rc11Backend) resetRun() {
	b.sc.reset()
}

// initStatic gives init write i the bag {x_i: 1} with the init thread's
// clock after its i+1-th tick, and collects every init write into the
// root view.
func (b *rc11Backend) initStatic() {
	e := b.e
	e.root.reset()
	for i := range e.prog.locs {
		l := memmodel.Loc(i + 1)
		e.root.clock.Tick(memmodel.InitThread)
		m := &e.locs[i].mo[0]
		m.bag.view = e.views.New(int(l))
		m.bag.view.Set(l, 1)
		m.bag.clock = e.clocks.Clone(e.root.clock)
		e.root.view.Set(l, 1)
	}
}

// postEvent extends the global SC view after an SC event's own update
// (Algorithm 2, getSC: successors observe this event's bag).
func (b *rc11Backend) postEvent(t *Thread, ev *memmodel.Event) {
	if ev.Label.Order.IsSC() && ev.Label.Kind != memmodel.KindAssert {
		b.sc.join(t.cur)
	}
}

func (b *rc11Backend) onSpawn(t *Thread)        {}
func (b *rc11Backend) onThreadFinish(t *Thread) {}

func (b *rc11Backend) commSink(kind memmodel.Kind, ord memmodel.Order) bool {
	return memmodel.Label{Kind: kind, Order: ord}.IsCommunicationEvent()
}

func (b *rc11Backend) finalValue(i int, loc *location) memmodel.Value {
	return loc.maximal().val
}

// acquireSCView is called before an SC event touches memory: the event
// observes the views of all SC-predecessors.
func (b *rc11Backend) acquireSCView(t *Thread) {
	t.cur.join(b.sc)
}

// readCandidates returns the coherence-legal writes for a read of l by t in
// ascending modification order. The coherence scan starts from the
// reader's view timestamp (the thread's floor for l), not the head of the
// modification order, so its cost is O(|candidates|) rather than O(|mo|).
// Without filtering, Candidates[0] is the thread-local view write
// (readLocal). When excludeVal is set, writes carrying excluded are
// filtered out (the failure path of a strong CAS).
//
// Aliasing contract: the returned slice aliases the engine-owned scratch
// buffer e.candBuf. It is valid only until the next readCandidates call;
// execRead/execCAS therefore fully consume one candidate set (strategy
// PickRead + message lookup) before issuing the next candidate query, and
// strategies must not retain ReadContext.Candidates across PickRead calls.
func (b *rc11Backend) readCandidates(t *Thread, l memmodel.Loc, excludeVal bool, excluded memmodel.Value) []ReadCandidate {
	e := b.e
	loc := e.loc(l)
	floor := t.cur.view.Get(l)
	if floor == 0 {
		floor = 1
	}
	msgs := loc.mo[floor-1:]
	cands := e.candBuf[:0]
	for i := range msgs {
		m := &msgs[i]
		if excludeVal && m.val == excluded {
			continue
		}
		cands = append(cands, ReadCandidate{Stamp: m.stamp, Value: m.val, Writer: m.event, WriterTID: m.tid})
	}
	e.candBuf = cands
	if e.tel != nil {
		// Sole materialization point of candidate bags: observing here
		// counts each read's readGlobal search space exactly once.
		e.tel.RFCandidates.Observe(uint64(len(cands)))
	}
	return cands
}

// execRead performs a load. When casFail is true the read is the failure
// path of a CAS and the candidate set excludes values equal to expected.
func (b *rc11Backend) execRead(t *Thread, l memmodel.Loc, ord memmodel.Order, casFail bool, expected memmodel.Value) memmodel.Value {
	if ord.IsSC() {
		b.acquireSCView(t)
	}
	cands := b.readCandidates(t, l, casFail, expected)
	return b.commitRead(t, l, ord, cands[b.e.pickRead(t, l, ord, casFail, cands)])
}

// commitRead emits the read event of l observing candidate c and applies
// it to t's view (Algorithm 2 lines 9-19).
func (b *rc11Backend) commitRead(t *Thread, l memmodel.Loc, ord memmodel.Order, c ReadCandidate) memmodel.Value {
	e := b.e
	m := e.loc(l).byStamp(c.Stamp)
	ev, clock := e.beginEvent(t, memmodel.Label{Kind: memmodel.KindRead, Order: ord, Loc: l, RVal: m.val})
	ev.ReadsFrom = m.event
	if ord.IsAcquire() {
		// Synchronizing read: acquire the whole bag (line 14).
		t.cur.join(m.bag)
	} else {
		// Relaxed or non-atomic: only this location advances (line 16);
		// the bag is stashed for a later acquire fence (sink-side
		// (po;[F]) of the sw definition).
		t.cur.view.Set(l, m.stamp)
		t.acqStash.join(m.bag)
	}
	e.raceCheck(t, ev.ID, l, false, ord == memmodel.NonAtomic, clock)
	e.spinCheck(t, l, m.val)
	e.finishEvent(t, ev)
	return m.val
}

// publish computes the bag a new write at (l, ts) publishes. The returned
// bag's backing arrays come from the engine's arenas and are owned by the
// message it is stored in.
func (t *Thread) publish(l memmodel.Loc, ts memmodel.TS, ord memmodel.Order, readMsg *message) viewClock {
	// A release write publishes the full thread view (sw source); a
	// relaxed write after a release fence still carries the fence's view
	// (source-side ([F];po) of the sw definition).
	src := t.relFence
	if ord.IsRelease() {
		src = t.cur
	}
	bag := t.eng.clone(src)
	if readMsg != nil {
		// RMWs continue release sequences: rf+ chains through updates, so
		// the update's message carries the read message's bag.
		bag.join(readMsg.bag)
	}
	bag.view.Set(l, ts)
	return bag
}

func (b *rc11Backend) execWrite(t *Thread, l memmodel.Loc, v memmodel.Value, ord memmodel.Order) {
	e := b.e
	if ord.IsSC() {
		b.acquireSCView(t)
	}
	loc := e.loc(l)
	ev, clock := e.beginEvent(t, memmodel.Label{Kind: memmodel.KindWrite, Order: ord, Loc: l, WVal: v})

	ts := memmodel.TS(len(loc.mo) + 1)
	bag := t.publish(l, ts, ord, nil)
	m := loc.appendSlot()
	m.val, m.tid, m.event = v, t.id, ev.ID
	m.bag = bag
	m.nonAtomic = ord == memmodel.NonAtomic
	ev.Stamp = ts
	t.cur.view.Set(l, ts) // Algorithm 2 lines 4-5

	t.resetSpin()
	e.progress()
	e.raceCheck(t, ev.ID, l, true, ord == memmodel.NonAtomic, clock)
	e.finishEvent(t, ev)
}

// execRMW performs an atomic update: it reads the mo-maximal write (the
// only read preserving atomicity with an append-only mo) and appends the
// transformed value immediately after it.
func (b *rc11Backend) execRMW(t *Thread, l memmodel.Loc, ord memmodel.Order, f func(memmodel.Value) memmodel.Value) memmodel.Value {
	e := b.e
	if ord.IsSC() {
		b.acquireSCView(t)
	}
	loc := e.loc(l)
	old := loc.maximal()
	newVal := f(old.val)
	ev, clock := e.beginEvent(t, memmodel.Label{Kind: memmodel.KindRMW, Order: ord, Loc: l, RVal: old.val, WVal: newVal})
	ev.ReadsFrom = old.event

	// Read side of the update.
	if ord.IsAcquire() {
		t.cur.join(old.bag)
	} else {
		t.acqStash.join(old.bag)
	}

	// Write side.
	ts := memmodel.TS(len(loc.mo) + 1)
	bag := t.publish(l, ts, ord, old)
	m := loc.appendSlot()
	m.val, m.tid, m.event = newVal, t.id, ev.ID
	m.bag = bag
	ev.Stamp = ts
	t.cur.view.Set(l, ts)

	t.resetSpin()
	e.progress()
	e.raceCheck(t, ev.ID, l, true, false, clock)
	e.finishEvent(t, ev)
	return old.val
}

func (b *rc11Backend) execCAS(t *Thread, req *request) (memmodel.Value, bool) {
	e := b.e
	loc := e.loc(req.loc)
	if loc.maximal().val == req.expected {
		if req.weak {
			// Weak CAS: the strategy may direct the operation at a
			// non-maximal write, failing spuriously even though the
			// exchange could have succeeded.
			cands := b.readCandidates(t, req.loc, false, 0)
			if choice := e.pickRead(t, req.loc, req.failOrder, true, cands); choice != len(cands)-1 {
				if req.failOrder.IsSC() {
					b.acquireSCView(t)
				}
				return b.commitRead(t, req.loc, req.failOrder, cands[choice]), false
			}
		}
		old := b.execRMW(t, req.loc, req.order, func(memmodel.Value) memmodel.Value { return req.value })
		return old, true
	}
	// Failure: a plain read that must observe a value ≠ expected (strong
	// CAS fails only on a genuine mismatch; a weak CAS behaves the same
	// once the maximal value differs). The mo-maximal write is always a
	// candidate, so the filtered set is never empty here.
	v := b.execRead(t, req.loc, req.failOrder, true, req.expected)
	return v, false
}

func (b *rc11Backend) onFence(t *Thread, ord memmodel.Order) {
	if ord.IsAcquire() {
		// Claim the bags stashed by earlier relaxed reads (Algorithm 2
		// lines 20-23, getSWSet).
		t.cur.join(t.acqStash)
	}
	if ord.IsSC() {
		b.acquireSCView(t)
	}
	if ord.IsRelease() {
		// Snapshot for later relaxed writes (lines 24-25: the thread's own
		// view does not change). copyFrom reuses the snapshot's backing
		// arrays across fences.
		t.relFence.copyFrom(t.cur)
	}
}

// onAlloc publishes {l: 1} like an initialization write, with the clock
// of a non-atomic write (the last release fence's), and makes the write
// part of t's view.
func (b *rc11Backend) onAlloc(t *Thread, l memmodel.Loc, m *message, clock memmodel.TS) {
	e := b.e
	m.bag.view = e.views.New(int(l))
	m.bag.view.Set(l, 1)
	m.bag.clock = e.clocks.Clone(t.relFence.clock)
	t.cur.view.Set(l, 1)
	e.raceCheck(t, m.event, l, true, true, clock)
}
