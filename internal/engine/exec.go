package engine

import (
	"fmt"
	"strconv"

	"pctwm/internal/memmodel"
)

// apply grants thread t's parked request and applies the active memory
// model's semantics, returning the response the thread resumes with. The
// caller (a baton holder, see driveStep) wakes t with the response — or
// discards it when the run stopped. The request is consumed in place (no
// copy): t cannot repost until it is woken.
//
// Loads, stores and RMWs dispatch to the model backend; fences,
// allocations and thread management (spawn, join, assert, yield) are
// handled here, with backend hooks where a model attaches semantics to
// them (rc11 fence views, TSO drains on spawn and thread completion).
func (e *Engine) apply(t *Thread) response {
	req := &t.req
	var res response
	switch req.code {
	case opLoad:
		res.value = e.model.execRead(t, req.loc, req.order, false, 0)
	case opStore:
		e.model.execWrite(t, req.loc, req.value, req.order)
	case opCAS:
		res.value, res.ok = e.model.execCAS(t, req)
	case opFetchAdd:
		res.value = e.model.execRMW(t, req.loc, req.order, func(old memmodel.Value) memmodel.Value { return old + req.value })
	case opExchange:
		res.value = e.model.execRMW(t, req.loc, req.order, func(memmodel.Value) memmodel.Value { return req.value })
	case opFence:
		ev, _ := e.beginEvent(t, memmodel.Label{Kind: memmodel.KindFence, Order: req.order})
		e.model.onFence(t, req.order)
		e.finishEvent(t, ev)
	case opAlloc:
		res.loc = e.execAlloc(t, req)
	case opSpawn:
		res.spawned = e.execSpawn(t, t.ext.spawnFn)
	case opJoin:
		e.execJoin(t, req.joinTID)
	case opAssert:
		e.execAssert(t, req)
	case opYield:
		// No event; scheduling opportunity only.
	default:
		panic(fmt.Sprintf("pctwm: unknown opcode %d", req.code))
	}
	return res
}

// beginEvent ticks the thread's clock and builds the event skeleton.
func (e *Engine) beginEvent(t *Thread, lab memmodel.Label) (*memmodel.Event, memmodel.TS) {
	clock := t.cur.clock.Tick(t.id)
	ev := e.newEvent(t.id, t.nextIndex, lab)
	t.nextIndex++
	return ev, clock
}

// finishEvent applies the model's post-event propagation (rc11: SC view
// extension), recording, counting and strategy notification — common tail
// of every memory event.
func (e *Engine) finishEvent(t *Thread, ev *memmodel.Event) {
	e.model.postEvent(t, ev)
	if ev.Label.Kind.IsMemoryAccess() || ev.Label.Kind == memmodel.KindFence {
		e.outcome.Events++
		if e.model.commSink(ev.Label.Kind, ev.Label.Order) {
			e.outcome.CommEvents++
		}
	}
	if e.tel != nil {
		e.tel.CountOp(ev.Label.Kind, ev.Label.Order)
	}
	if e.cov != nil {
		e.cov.Observe(ev)
	}
	e.record(ev)
	e.strat.OnEvent(ev)
}

// loc returns the location of an access, whose range submit checked.
func (e *Engine) loc(l memmodel.Loc) *location { return &e.locs[l-1] }

func (e *Engine) execSpawn(t *Thread, fn ThreadFunc) *ThreadHandle {
	e.model.onSpawn(t)
	ev, _ := e.beginEvent(t, memmodel.Label{Kind: memmodel.KindSpawn})
	// The child is named lazily ("parent.id", see Thread.Name): no string
	// formatting on the spawn hot path.
	child := e.newThread("", t, t.cur)
	if e.rec != nil {
		e.rec.SpawnLinks = append(e.rec.SpawnLinks, SpawnLink{From: ev.ID, Child: child.id})
	}
	e.startThread(child, fn)
	e.strat.OnThreadStart(child.id, t.id)
	e.progress()
	e.finishEvent(t, ev)
	return &ThreadHandle{tid: child.id}
}

func (e *Engine) execJoin(t *Thread, child memmodel.ThreadID) {
	c := e.thread(child)
	if !c.finished {
		// The scheduler only grants enabled threads; being granted here
		// means the child finished.
		panic("pctwm: join granted while child still running")
	}
	ev, _ := e.beginEvent(t, memmodel.Label{Kind: memmodel.KindJoin})
	if e.rec != nil {
		e.rec.JoinLinks = append(e.rec.JoinLinks, JoinLink{Child: child, To: ev.ID})
	}
	// Child termination synchronizes with the join (the views are empty
	// and the join is a no-op under models that do not track them).
	t.cur.join(c.cur)
	e.finishEvent(t, ev)
}

// execAlloc creates the request's locations, each initialized by a
// non-atomic write of t at stamp 1 to which the backend attaches its
// state (onAlloc).
func (e *Engine) execAlloc(t *Thread, req *request) memmodel.Loc {
	base := memmodel.Loc(len(e.locs) + 1)
	for i := 0; i < req.allocN; i++ {
		var init memmodel.Value
		if i < len(t.ext.allocInit) {
			init = t.ext.allocInit[i]
		}
		l := memmodel.Loc(len(e.locs) + 1)
		ev, clock := e.beginEvent(t, memmodel.Label{
			Kind: memmodel.KindWrite, Order: memmodel.NonAtomic, Loc: l, WVal: init,
		})
		ev.Stamp = 1
		loc := e.pushLoc()
		loc.allocName = t.ext.allocName
		loc.allocBase = base
		loc.allocIdx = i
		m := loc.appendSlot()
		m.val, m.tid, m.event = init, t.id, ev.ID
		m.nonAtomic = true
		e.model.onAlloc(t, l, m, clock)
		e.finishEvent(t, ev)
	}
	e.progress()
	return base
}

func (e *Engine) execAssert(t *Thread, req *request) {
	ev, _ := e.beginEvent(t, memmodel.Label{Kind: memmodel.KindAssert})
	e.progress()
	if !req.assertOK {
		// Benchmarks hit failing asserts on a large fraction of runs;
		// building the message by hand keeps fmt's interface machinery off
		// that path (same output as the previous Sprintf).
		buf := make([]byte, 0, 48+len(t.ext.assertMsg))
		buf = append(buf, "assertion failed in "...)
		buf = append(buf, t.Name()...)
		buf = append(buf, " (t"...)
		buf = strconv.AppendInt(buf, int64(t.id), 10)
		buf = append(buf, "): "...)
		buf = append(buf, t.ext.assertMsg...)
		e.reportBug(string(buf))
	}
	e.finishEvent(t, ev)
}

// progress resets the stall detector: something observable happened.
func (e *Engine) progress() { e.stepsSinceProgress = 0 }

func (e *Engine) raceCheck(t *Thread, ev memmodel.EventID, l memmodel.Loc, write, nonAtomic bool, clock memmodel.TS) {
	if e.det == nil {
		return
	}
	if e.tel != nil {
		e.tel.RaceChecks++
	}
	e.det.OnAccess(t.id, ev, l, write, nonAtomic, clock, t.cur.clock)
}

// pickRead returns the index of the candidate a read of l by t observes:
// the strategy's choice when there are several.
func (e *Engine) pickRead(t *Thread, l memmodel.Loc, ord memmodel.Order, rmwFailure bool, cands []ReadCandidate) int {
	if len(cands) == 0 {
		panic(fmt.Sprintf("pctwm: no read candidates for %s at %s", t.Name(), e.locName(l)))
	}
	if len(cands) == 1 {
		return 0
	}
	choice := e.strat.PickRead(ReadContext{
		TID: t.id, Index: t.nextIndex, Loc: l, Order: ord,
		RMWFailure: rmwFailure, Candidates: cands,
	})
	if choice < 0 || choice >= len(cands) {
		panic(fmt.Sprintf("pctwm: strategy %s picked read candidate %d of %d", e.strat.Name(), choice, len(cands)))
	}
	return choice
}

// spinCheck implements the wait-loop heuristic: a thread repeatedly loading
// the same value from the same location is assumed livelocked and the
// strategy is notified so it can randomize (paper §6.2).
func (e *Engine) spinCheck(t *Thread, l memmodel.Loc, v memmodel.Value) {
	if t.spinLoc == l && t.spinVal == v {
		t.spinCount++
		if t.spinCount >= spinThreshold && t.spinCount%spinThreshold == 0 {
			e.strat.OnSpin(t.id)
		}
		return
	}
	t.spinLoc, t.spinVal, t.spinCount = l, v, 1
}

func (t *Thread) resetSpin() { t.spinLoc, t.spinVal, t.spinCount = 0, 0, 0 }
