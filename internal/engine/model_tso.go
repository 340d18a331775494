package engine

import (
	"fmt"

	"pctwm/internal/memmodel"
)

// tsoBackend is x86-TSO (Owens, Sarkar, Sewell 2009): each thread owns a
// FIFO store buffer, loads forward from the youngest own buffered store
// (mandatory on x86), RMWs and SC accesses drain the issuing thread's
// buffer, and shared memory holds one copy per location. It absorbs the
// former internal/tso demo machine into the main engine, so every
// strategy, the harness, campaigns, telemetry, recording and replay work
// on TSO unchanged.
//
// Drains are not standalone scheduler actions (strategies would need a
// TSO-specific protocol); they are folded into the read-candidate choice:
//
//   - a load with no own buffered store to the location chooses among the
//     write currently in shared memory (Candidates[0] — the "no drain
//     happened" default, PCTWM's readLocal analogue) and the remote
//     buffered stores to that location in ascending stamp order;
//   - choosing a remote buffered store drains its owner's buffer FIFO
//     through the chosen entry first (exactly the machine steps that make
//     the store visible), so MP-style reorderings stay impossible;
//   - buffers also drain at forced points: own RMW/CAS (LOCK prefix), SC
//     store and SC fence (MFENCE), spawn (the child must observe the
//     parent's initialization), and thread completion (so final state
//     reflects every completed thread's stores).
//
// The modification order (location.mo) records stores in issue order and
// mem[l] holds the stamp of the write currently visible in shared memory.
// Since drains of different threads may interleave, the drain order — not
// the issue order — is the coherence order; mem simply tracks the last
// drain, which is exactly the operational x86-TSO machine.
type tsoBackend struct {
	e *Engine
	// mem[i] is the stamp of the write to Loc(i+1) currently in shared
	// memory (1 = the initialization write). Reset per run.
	mem []memmodel.TS
}

// tsoEntry is one pending store in a thread's FIFO store buffer.
type tsoEntry struct {
	loc   memmodel.Loc
	stamp memmodel.TS
}

func (b *tsoBackend) resetRun() {
	k := len(b.e.prog.locs)
	if cap(b.mem) < k {
		b.mem = make([]memmodel.TS, k)
	}
	b.mem = b.mem[:k]
	for i := range b.mem {
		b.mem[i] = 1
	}
}

func (b *tsoBackend) initStatic()                             {}
func (b *tsoBackend) postEvent(t *Thread, ev *memmodel.Event) {}

// onSpawn drains the parent's buffer: thread creation synchronizes, so
// the child must observe the parent's writes from shared memory.
func (b *tsoBackend) onSpawn(t *Thread) { b.drain(t) }

// onThreadFinish drains the completed thread's buffer: its stores become
// globally visible, and the final state includes them.
func (b *tsoBackend) onThreadFinish(t *Thread) { b.drain(t) }

// commSink: under TSO the weak behaviour is the delayed drain of store
// buffers, and a communication relation is a load (or RMW) observing
// another thread's store — so the sinks are the reads and RMWs,
// regardless of memory order (x86 has no per-access order choice).
func (b *tsoBackend) commSink(kind memmodel.Kind, ord memmodel.Order) bool {
	return kind.Reads()
}

func (b *tsoBackend) finalValue(i int, loc *location) memmodel.Value {
	return loc.byStamp(b.mem[i]).val
}

func (b *tsoBackend) setMem(l memmodel.Loc, ts memmodel.TS) {
	b.mem[int(l)-1] = ts
}

// drain flushes t's entire store buffer to shared memory in FIFO order.
func (b *tsoBackend) drain(t *Thread) {
	if len(t.tsoBuf) == 0 {
		return
	}
	for _, en := range t.tsoBuf {
		b.setMem(en.loc, en.stamp)
	}
	if b.e.tel != nil {
		b.e.tel.Drains += uint64(len(t.tsoBuf))
	}
	t.tsoBuf = t.tsoBuf[:0]
}

// drainThrough flushes owner's buffer FIFO up to and including the entry
// (l, stamp); later entries stay buffered.
func (b *tsoBackend) drainThrough(owner *Thread, l memmodel.Loc, stamp memmodel.TS) {
	n := 0
	for i, en := range owner.tsoBuf {
		if en.loc == l && en.stamp == stamp {
			n = i + 1
			break
		}
	}
	if n == 0 {
		panic(fmt.Sprintf("pctwm: tso drain-through: stamp %d for loc %d not buffered by t%d", stamp, l, owner.id))
	}
	for i := 0; i < n; i++ {
		b.setMem(owner.tsoBuf[i].loc, owner.tsoBuf[i].stamp)
	}
	if b.e.tel != nil {
		b.e.tel.Drains += uint64(n)
	}
	owner.tsoBuf = append(owner.tsoBuf[:0], owner.tsoBuf[n:]...)
}

// readCandidates collects the writes a load of l by t may observe when t
// has no own buffered store to l: the write currently in shared memory
// first, then every remote buffered store to l in ascending stamp order.
// The slice aliases e.candBuf (same contract as the rc11 backend).
func (b *tsoBackend) readCandidates(t *Thread, l memmodel.Loc, excludeVal bool, excluded memmodel.Value) []ReadCandidate {
	e := b.e
	loc := e.loc(l)
	cands := e.candBuf[:0]
	memStamp := b.mem[int(l)-1]
	if m := loc.byStamp(memStamp); !(excludeVal && m.val == excluded) {
		cands = append(cands, ReadCandidate{Stamp: memStamp, Value: m.val, Writer: m.event, WriterTID: m.tid})
	}
	head := len(cands)
	for _, other := range e.threads {
		if other == t {
			continue
		}
		for _, en := range other.tsoBuf {
			if en.loc != l {
				continue
			}
			m := loc.byStamp(en.stamp)
			if excludeVal && m.val == excluded {
				continue
			}
			// Insert in ascending stamp order behind the memory candidate
			// (each thread's own entries are already FIFO-ascending, so
			// this is a cheap merge across threads).
			j := len(cands)
			for j > head && cands[j-1].Stamp > en.stamp {
				j--
			}
			cands = append(cands, ReadCandidate{})
			copy(cands[j+1:], cands[j:])
			cands[j] = ReadCandidate{Stamp: en.stamp, Value: m.val, Writer: m.event, WriterTID: m.tid}
		}
	}
	e.candBuf = cands
	if e.tel != nil {
		e.tel.RFCandidates.Observe(uint64(len(cands)))
	}
	return cands
}

func (b *tsoBackend) execRead(t *Thread, l memmodel.Loc, ord memmodel.Order, casFail bool, expected memmodel.Value) memmodel.Value {
	e := b.e
	loc := e.loc(l)

	// Store forwarding: the youngest own buffered store to l wins,
	// unconditionally (x86 gives the program no choice here).
	for i := len(t.tsoBuf) - 1; i >= 0; i-- {
		if t.tsoBuf[i].loc == l {
			m := loc.byStamp(t.tsoBuf[i].stamp)
			if e.tel != nil {
				e.tel.RFCandidates.Observe(1)
			}
			return b.finishRead(t, l, ord, m)
		}
	}

	cands := b.readCandidates(t, l, casFail, expected)
	c := cands[e.pickRead(t, l, ord, casFail, cands)]
	if c.Stamp != b.mem[int(l)-1] {
		// A remote buffered store: make it visible the way the machine
		// would — drain its owner's buffer through it.
		owner := e.thread(c.WriterTID)
		if owner == nil {
			panic(fmt.Sprintf("pctwm: tso candidate writer t%d unknown", c.WriterTID))
		}
		b.drainThrough(owner, l, c.Stamp)
	}
	return b.finishRead(t, l, ord, loc.byStamp(c.Stamp))
}

// finishRead emits the read event for message m.
func (b *tsoBackend) finishRead(t *Thread, l memmodel.Loc, ord memmodel.Order, m *message) memmodel.Value {
	e := b.e
	ev, _ := e.beginEvent(t, memmodel.Label{Kind: memmodel.KindRead, Order: ord, Loc: l, RVal: m.val})
	ev.ReadsFrom = m.event
	e.spinCheck(t, l, m.val)
	e.finishEvent(t, ev)
	return m.val
}

func (b *tsoBackend) execWrite(t *Thread, l memmodel.Loc, v memmodel.Value, ord memmodel.Order) {
	e := b.e
	loc := e.loc(l)
	ev, _ := e.beginEvent(t, memmodel.Label{Kind: memmodel.KindWrite, Order: ord, Loc: l, WVal: v})
	ts := memmodel.TS(len(loc.mo) + 1)
	m := loc.appendSlot()
	m.val, m.tid, m.event = v, t.id, ev.ID
	m.nonAtomic = ord == memmodel.NonAtomic
	ev.Stamp = ts
	t.tsoBuf = append(t.tsoBuf, tsoEntry{loc: l, stamp: ts})
	if ord.IsSC() {
		// x86 mapping of an SC store: MOV + MFENCE — the store enters the
		// buffer and the buffer drains immediately.
		b.drain(t)
	}
	t.resetSpin()
	e.progress()
	e.finishEvent(t, ev)
}

func (b *tsoBackend) execRMW(t *Thread, l memmodel.Loc, ord memmodel.Order, f func(memmodel.Value) memmodel.Value) memmodel.Value {
	e := b.e
	// LOCK-prefixed instruction: the issuing thread's buffer drains and
	// the update operates on shared memory atomically.
	b.drain(t)
	loc := e.loc(l)
	old := loc.byStamp(b.mem[int(l)-1])
	oldVal, oldEvent := old.val, old.event
	newVal := f(oldVal)
	ev, _ := e.beginEvent(t, memmodel.Label{Kind: memmodel.KindRMW, Order: ord, Loc: l, RVal: oldVal, WVal: newVal})
	ev.ReadsFrom = oldEvent
	ts := memmodel.TS(len(loc.mo) + 1)
	m := loc.appendSlot()
	m.val, m.tid, m.event = newVal, t.id, ev.ID
	ev.Stamp = ts
	b.setMem(l, ts)
	t.resetSpin()
	e.progress()
	e.finishEvent(t, ev)
	return oldVal
}

func (b *tsoBackend) execCAS(t *Thread, req *request) (memmodel.Value, bool) {
	e := b.e
	// LOCK CMPXCHG drains the buffer before comparing against memory; a
	// weak CAS behaves exactly like a strong one (x86 has no spurious
	// failure).
	b.drain(t)
	loc := e.loc(req.loc)
	if loc.byStamp(b.mem[int(req.loc)-1]).val == req.expected {
		old := b.execRMW(t, req.loc, req.order, func(memmodel.Value) memmodel.Value { return req.value })
		return old, true
	}
	// Failure: a read of the memory value (the buffer is empty, so no
	// forwarding; the value necessarily differs from expected).
	if e.tel != nil {
		e.tel.RFCandidates.Observe(1)
	}
	v := b.finishRead(t, req.loc, req.failOrder, loc.byStamp(b.mem[int(req.loc)-1]))
	return v, false
}

func (b *tsoBackend) onFence(t *Thread, ord memmodel.Order) {
	if ord.IsSC() {
		// MFENCE. Acquire/release(/acq-rel) fences compile to nothing on
		// x86: loads and stores already carry those orders.
		b.drain(t)
	}
}

// onAlloc puts the initialization write straight into shared memory
// (allocation is not a store the buffer may delay).
func (b *tsoBackend) onAlloc(t *Thread, l memmodel.Loc, m *message, clock memmodel.TS) {
	b.mem = append(b.mem, 1)
}
