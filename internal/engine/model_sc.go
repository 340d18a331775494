package engine

import (
	"fmt"

	"pctwm/internal/memmodel"
)

// scBackend is sequential consistency: one memory copy, every read
// observes the mo-maximal write, every write is immediately visible to
// everyone. Reads have exactly one candidate, so the strategy's PickRead
// is never consulted and the only nondeterminism is the interleaving —
// which makes sc the differential-testing baseline (a weak behaviour is
// precisely an outcome reachable under tso/rc11 but not under sc) and the
// overhead floor of the scheduling machinery.
type scBackend struct {
	e *Engine
}

func (b *scBackend) resetRun()                               {}
func (b *scBackend) initStatic()                             {}
func (b *scBackend) postEvent(t *Thread, ev *memmodel.Event) {}
func (b *scBackend) onSpawn(t *Thread)                       {}
func (b *scBackend) onThreadFinish(t *Thread)                {}

// onFence: every access is already sequentially consistent; the fence is
// an event with no additional semantics.
func (b *scBackend) onFence(t *Thread, ord memmodel.Order) {}

func (b *scBackend) onAlloc(t *Thread, l memmodel.Loc, m *message, clock memmodel.TS) {}

// commSink: with a single memory copy every read observes other threads'
// writes directly, so the communication sinks are the reads and RMWs
// (fences carry no synchronization beyond what every access already has).
func (b *scBackend) commSink(kind memmodel.Kind, ord memmodel.Order) bool {
	return kind.Reads()
}

func (b *scBackend) finalValue(i int, loc *location) memmodel.Value {
	return loc.maximal().val
}

func (b *scBackend) execRead(t *Thread, l memmodel.Loc, ord memmodel.Order, casFail bool, expected memmodel.Value) memmodel.Value {
	e := b.e
	m := e.loc(l).maximal()
	if casFail && m.val == expected {
		// Unreachable: the CAS failure path runs only when the maximal
		// value differs from expected.
		panic(fmt.Sprintf("pctwm: sc CAS failure read at %s observed the expected value", e.locName(l)))
	}
	if e.tel != nil {
		e.tel.RFCandidates.Observe(1)
	}
	ev, _ := e.beginEvent(t, memmodel.Label{Kind: memmodel.KindRead, Order: ord, Loc: l, RVal: m.val})
	ev.ReadsFrom = m.event
	e.spinCheck(t, l, m.val)
	e.finishEvent(t, ev)
	return m.val
}

func (b *scBackend) execWrite(t *Thread, l memmodel.Loc, v memmodel.Value, ord memmodel.Order) {
	e := b.e
	loc := e.loc(l)
	ev, _ := e.beginEvent(t, memmodel.Label{Kind: memmodel.KindWrite, Order: ord, Loc: l, WVal: v})
	ts := memmodel.TS(len(loc.mo) + 1)
	m := loc.appendSlot()
	m.val, m.tid, m.event = v, t.id, ev.ID
	m.nonAtomic = ord == memmodel.NonAtomic
	ev.Stamp = ts
	t.resetSpin()
	e.progress()
	e.finishEvent(t, ev)
}

func (b *scBackend) execRMW(t *Thread, l memmodel.Loc, ord memmodel.Order, f func(memmodel.Value) memmodel.Value) memmodel.Value {
	e := b.e
	loc := e.loc(l)
	old := loc.maximal()
	oldVal, oldEvent := old.val, old.event
	newVal := f(oldVal)
	ev, _ := e.beginEvent(t, memmodel.Label{Kind: memmodel.KindRMW, Order: ord, Loc: l, RVal: oldVal, WVal: newVal})
	ev.ReadsFrom = oldEvent
	ts := memmodel.TS(len(loc.mo) + 1)
	m := loc.appendSlot()
	m.val, m.tid, m.event = newVal, t.id, ev.ID
	ev.Stamp = ts
	t.resetSpin()
	e.progress()
	e.finishEvent(t, ev)
	return oldVal
}

func (b *scBackend) execCAS(t *Thread, req *request) (memmodel.Value, bool) {
	e := b.e
	// Under SC a weak CAS cannot fail spuriously: there is no stale value
	// to observe instead of the maximal one.
	if e.loc(req.loc).maximal().val == req.expected {
		old := b.execRMW(t, req.loc, req.order, func(memmodel.Value) memmodel.Value { return req.value })
		return old, true
	}
	v := b.execRead(t, req.loc, req.failOrder, true, req.expected)
	return v, false
}
