package engine

import (
	"fmt"

	"pctwm/internal/memmodel"
)

// viewClock is an rc11 view together with its happens-before clock. The
// two travel the same edges — Algorithm 2 publishes the view on a release
// and joins it on an acquire, and the race detector's clock follows — so
// join, copy, reset, clone and release act on both halves. An update of
// one half names it: reads and writes Set only the view; an event's tick
// and the race check touch only the clock.
type viewClock struct {
	view  memmodel.View
	clock memmodel.View
}

func (s *viewClock) join(o viewClock) {
	s.view.Join(o.view)
	s.clock.Join(o.clock)
}

func (s *viewClock) copyFrom(o viewClock) {
	s.view.CopyFrom(o.view)
	s.clock.CopyFrom(o.clock)
}

func (s *viewClock) reset() {
	s.view.Reset()
	s.clock.Reset()
}

// clone returns a copy of s backed by the engine's arenas.
func (e *Engine) clone(s viewClock) viewClock {
	return viewClock{view: e.views.Clone(s.view), clock: e.clocks.Clone(s.clock)}
}

// release returns s's backing arrays to the engine's arenas.
func (e *Engine) release(s *viewClock) {
	e.views.Release(&s.view)
	e.clocks.Release(&s.clock)
}

// message is a write event living in a location's modification order. It
// carries the "bag" of the paper's Algorithm 2 — the view it communicates
// to readers that synchronize with it — with the matching happens-before
// clock.
type message struct {
	stamp memmodel.TS
	val   memmodel.Value
	// writer identity
	tid   memmodel.ThreadID
	event memmodel.EventID
	// bag is what the write publishes under rc11 (empty under other
	// models): the full thread view and clock for release writes, the
	// last release fence's for relaxed writes, additionally joined with
	// the read message's bag for RMWs (release sequences through rf+),
	// and {loc: stamp} in the view. Its backing arrays are owned by this
	// message and returned to the arenas when the run's state is
	// released.
	bag viewClock
	// nonAtomic marks plain (na) writes for the race detector.
	nonAtomic bool
}

// location is the runtime state of one shared memory cell: its full
// modification order. mo[i] has stamp i+1; mo is append-only, so
// modification order coincides with write execution order (as in
// C11Tester).
//
// Display names are lazy: statically declared locations carry their
// declared name, dynamically allocated ones only the Alloc call's
// parameters — the "name#base[idx]" string is formatted on demand
// (diagnostics, recordings), never on the allocation hot path.
type location struct {
	name string // static declaration name; "" for dynamic allocations
	// dynamic-allocation naming parameters (valid when name == "")
	allocName string
	allocBase memmodel.Loc
	allocIdx  int

	mo []message
}

// displayName renders the location's diagnostic name; self is the
// location's own handle (used for dynamic allocations).
func (l *location) displayName(self memmodel.Loc) string {
	if l.name != "" {
		return l.name
	}
	return fmt.Sprintf("%s#%d[%d]", l.allocName, l.allocBase, l.allocIdx)
}

func (l *location) maximal() *message { return &l.mo[len(l.mo)-1] }

// byStamp returns the message with the given stamp.
func (l *location) byStamp(ts memmodel.TS) *message { return &l.mo[ts-1] }

// appendSlot grows the modification order by one and returns the new slot,
// zeroed except for its stamp. Callers fill the remaining fields in place:
// message is large enough that constructing it in the caller and passing it
// by value costs two bulk copies per write on the hot path.
func (l *location) appendSlot() *message {
	n := len(l.mo)
	if n < cap(l.mo) {
		// Reused backing storage holds a stale message from a previous run
		// (its bag arrays were released); clear it before handing out.
		l.mo = l.mo[:n+1]
		l.mo[n] = message{}
	} else {
		l.mo = append(l.mo, message{})
	}
	m := &l.mo[n]
	m.stamp = memmodel.TS(n + 1)
	return m
}
