package axiom

import (
	"fmt"
	"slices"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// CheckModel verifies the recording against the axioms of the memory
// model that produced it ("" means the default rc11 model). Recordings
// are only meaningful against their own model: an rc11 execution with a
// weak behaviour is expected to fail CheckSC, and that failure is a
// property of the cross-check, not of the execution.
func (g *Graph) CheckModel(model string) []Violation {
	switch model {
	case "", engine.ModelRC11:
		return g.Check()
	case engine.ModelSC:
		return g.CheckSC()
	case engine.ModelTSO:
		return g.CheckTSO()
	}
	return []Violation{{Axiom: "model", Msg: fmt.Sprintf("unknown memory model %q (have %v)", model, engine.Models())}}
}

// CheckSC verifies sequential consistency: event ids are execution
// order, so the single interleaving the engine serialized is the
// witness, and every read (including the read side of RMWs) must
// observe the execution-order-latest write to its location.
func (g *Graph) CheckSC() []Violation {
	vs := g.checkWellFormed()
	last := make([]memmodel.EventID, g.locs()) // per mo run; NoEvent before its first write
	for i := range last {
		last[i] = memmodel.NoEvent
	}
	for i := range g.Events {
		ev := &g.Events[i]
		if !ev.Label.Kind.IsMemoryAccess() {
			continue
		}
		l := g.locOf(ev.Label.Loc)
		if l < 0 {
			continue // a read of a location nothing writes
		}
		if ev.Label.Kind.Reads() && ev.ReadsFrom != memmodel.NoEvent {
			if w := last[l]; w != memmodel.NoEvent && ev.ReadsFrom != w {
				vs = append(vs, g.violation("sc-read",
					"%s does not read the interleaving-latest write %s", ev.ID, w))
			}
		}
		if ev.Label.Kind.Writes() {
			last[l] = ev.ID
		}
	}
	return vs
}

// tsoReplay is the operational x86-TSO state rebuilt while replaying a
// recording: per-thread FIFO store buffers plus the single shared copy
// of memory (the latest drained write per location), in slices parallel
// to the graph's po and mo runs.
type tsoReplay struct {
	g   *Graph
	mem []memmodel.EventID   // per mo run; NoEvent until a write reaches memory
	buf [][]memmodel.EventID // per po run
}

func newTSOReplay(g *Graph) *tsoReplay {
	s := &tsoReplay{
		g:   g,
		mem: make([]memmodel.EventID, g.locs()),
		buf: make([][]memmodel.EventID, g.threads()),
	}
	for i := range s.mem {
		s.mem[i] = memmodel.NoEvent
	}
	// A thread buffers only its own stores, so its run's span of one
	// shared array is room enough.
	store := make([]memmodel.EventID, len(g.po))
	for t := range s.buf {
		s.buf[t] = store[g.poOff[t]:g.poOff[t]:g.poOff[t+1]]
	}
	return s
}

// commit makes write w the shared copy of its location.
func (s *tsoReplay) commit(w memmodel.EventID) {
	s.mem[s.g.locOf(s.g.Events[w].Label.Loc)] = w
}

// drain flushes thread t's buffer to memory in FIFO order.
func (s *tsoReplay) drain(t int) {
	for _, w := range s.buf[t] {
		s.commit(w)
	}
	s.buf[t] = s.buf[t][:0]
}

// drainThrough flushes thread t's buffer up to and including entry w,
// reporting whether w was buffered there.
func (s *tsoReplay) drainThrough(t int, w memmodel.EventID) bool {
	b := s.buf[t]
	i := slices.Index(b, w)
	if i < 0 {
		return false
	}
	for _, id := range b[:i+1] {
		s.commit(id)
	}
	s.buf[t] = append(b[:0], b[i+1:]...)
	return true
}

// shared returns the shared copy of loc, or NoEvent.
func (s *tsoReplay) shared(loc memmodel.Loc) memmodel.EventID {
	if l := s.g.locOf(loc); l >= 0 {
		return s.mem[l]
	}
	return memmodel.NoEvent
}

// CheckTSO verifies the recording against operational x86-TSO (Owens,
// Sarkar, Sewell 2009) by replaying it through store buffers: a load
// must forward from its own buffer when possible, and otherwise read
// either the shared-memory copy or a store still buffered in another
// thread (which commits that store's FIFO prefix); RMWs and SC
// operations flush the executing thread's buffer and act on memory
// directly. End-of-thread drains are not replayed — a store made
// visible that way is indistinguishable, to a later load, from one
// observed by drain-through.
func (g *Graph) CheckTSO() []Violation {
	vs := g.checkWellFormed()
	st := newTSOReplay(g)
	// A remote buffered store can only sit in its writer's buffer.
	drainWriter := func(w memmodel.EventID) bool {
		return st.drainThrough(g.threadOf(g.Events[w].TID), w)
	}
	for i := range g.Events {
		ev := &g.Events[i]
		t := g.threadOf(ev.TID)
		switch ev.Label.Kind {
		case memmodel.KindWrite:
			if ev.Stamp == 1 {
				// A location's first write is its initialization (static
				// init or Alloc), visible to everyone immediately — the
				// buffer never delays it.
				st.commit(ev.ID)
				continue
			}
			st.buf[t] = append(st.buf[t], ev.ID)
			if ev.Label.Order.IsSC() {
				st.drain(t) // MOV + MFENCE
			}
		case memmodel.KindRead:
			if ev.ReadsFrom == memmodel.NoEvent {
				continue // reported by checkWellFormed
			}
			// Mandatory store forwarding: the youngest own buffered
			// store to the location wins.
			if own := youngest(st.buf[t], ev.Label.Loc, g); own != memmodel.NoEvent {
				if ev.ReadsFrom != own {
					vs = append(vs, g.violation("tso-forward",
						"%s must forward from its own buffered store %s, read %s instead",
						ev.ID, own, ev.ReadsFrom))
				}
				continue
			}
			if w := st.shared(ev.Label.Loc); w != memmodel.NoEvent && w == ev.ReadsFrom {
				continue // read the shared copy
			}
			if drainWriter(ev.ReadsFrom) {
				continue // observed a remote buffered store as it committed
			}
			vs = append(vs, g.violation("tso-read",
				"%s reads %s, which is neither the shared copy nor buffered anywhere", ev.ID, ev.ReadsFrom))
		case memmodel.KindRMW:
			st.drain(t) // LOCK prefix: flush, then act on memory
			if ev.ReadsFrom != memmodel.NoEvent {
				if w := st.shared(ev.Label.Loc); w == memmodel.NoEvent || w == ev.ReadsFrom {
					// read the shared copy
				} else if drainWriter(ev.ReadsFrom) {
					// The source was still buffered elsewhere: its owner's
					// FIFO prefix committed before the locked access.
				} else {
					vs = append(vs, g.violation("tso-rmw",
						"RMW %s must read the shared copy %s, read %s instead", ev.ID, w, ev.ReadsFrom))
				}
			}
			st.commit(ev.ID) // the locked write skips the buffer
		case memmodel.KindFence:
			if ev.Label.Order.IsSC() {
				st.drain(t) // MFENCE; weaker fences compile to nothing
			}
		case memmodel.KindSpawn:
			st.drain(t) // the child must see the parent's writes
		}
	}
	return vs
}

// youngest returns the most recent buffered store to loc in buf, or
// NoEvent when the buffer holds none.
func youngest(buf []memmodel.EventID, loc memmodel.Loc, g *Graph) memmodel.EventID {
	for i := len(buf) - 1; i >= 0; i-- {
		if g.Events[buf[i]].Label.Loc == loc {
			return buf[i]
		}
	}
	return memmodel.NoEvent
}
