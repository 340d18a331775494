// Package axiom builds execution graphs X = ⟨E, po, rf, mo, SC⟩ from
// engine recordings and checks the C11 consistency axioms of the paper's
// §4: write/read coherence, RMW atomicity, irrMOSC, and the C11Tester (SC)
// axiom that hb ∪ rf ∪ SC is acyclic. The engine's view machine is
// supposed to generate only consistent executions; tests use this package
// to enforce that as an invariant.
package axiom

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// Graph is an execution graph. Events are indexed by EventID, which equals
// execution order (the engine allocates ids monotonically).
//
// Every relation lives in flat arrays, with no maps. FromRecording places
// the events into per-thread po runs and the writes into per-location mo
// runs, and indexes the readers of each write, in one array of ids and
// one of offsets. sw and hb are derived on first use, by Check, HB, SW,
// WriteText or WriteDot; the sc and tso checkers need neither. A Graph
// does not change once built and is safe for concurrent readers: the
// derivation runs once, and every check call takes its own scratch.
type Graph struct {
	Events []memmodel.Event

	// po holds every event, grouped into one run per thread: threads in
	// ascending id order, each run in program order (by Index, then ID).
	// Run i is po[poOff[i]:poOff[i+1]].
	po    []memmodel.EventID
	poOff []int32
	// mo holds every write, grouped into one run per location: locations
	// in ascending order, each run in modification order (by Stamp, then
	// ID). Run i is mo[moOff[i]:moOff[i+1]].
	mo    []memmodel.EventID
	moOff []int32
	// readers[readOff[w]:readOff[w+1]] are the reading events whose rf
	// source is w, in execution order.
	readers []memmodel.EventID
	readOff []int32
	// threadIx maps thread ids to po runs, locIx locations to mo runs.
	threadIx, locIx runIndex

	// rec is the recording, for its SC order and spawn and join links.
	rec *engine.Recording

	// derived guards sw and hb, which derive builds on first use.
	derived sync.Once
	fences  int32                 // how many fences buildSW indexes
	sw      [][2]memmodel.EventID // synchronizes-with edges
	// hb holds one row of words uint64s per event: bit j of row i is set
	// ⇔ hb(j, i), so row i is the set of i's predecessors.
	hb    []uint64
	words int
}

// A runIndex numbers the distinct thread ids or locations of a recording
// in ascending order, which is the order of their runs. Ids whose range
// is at most twice their count, plus denseSlack, index a table directly,
// as engine recordings always do. Sparser ids, which only hand-built or
// fuzzed recordings have, are compacted first into the sorted list of the
// distinct ids, and a lookup searches the list.
type runIndex struct {
	base   int32
	sparse bool
	// Dense: ids[id-base] is the run of id, or -1. Sparse: ids lists the
	// distinct ids in ascending order, and an id's run is its position.
	ids []int32
}

// denseSlack is the table room a runIndex allows beyond twice its ids.
const denseSlack = 64

// newRunIndex prepares the index of the count ids in lo..hi that key
// yields over evs, and returns it with its number of slots: the ids a
// dense index's table will hold, or the distinct ids.
func newRunIndex(evs []memmodel.Event, lo, hi int32, count int, key func(*memmodel.Event) (int32, bool)) (runIndex, int) {
	if count == 0 {
		return runIndex{}, 0
	}
	if span := int64(hi) - int64(lo) + 1; span <= 2*int64(count)+denseSlack {
		return runIndex{base: lo}, int(span)
	}
	var keys []int32
	for i := range evs {
		if id, ok := key(&evs[i]); ok {
			keys = append(keys, id)
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	return runIndex{sparse: true, ids: keys}, len(keys)
}

// slot returns the slot of id, or -1 when it has none: id-base in a
// dense index, id's position in a sparse one.
func (x *runIndex) slot(id int32) int {
	if x.sparse {
		if i, ok := slices.BinarySearch(x.ids, id); ok {
			return i
		}
		return -1
	}
	if s := int64(id) - int64(x.base); s >= 0 && s < int64(len(x.ids)) {
		return int(s)
	}
	return -1
}

// of returns the run of id, or -1 when no run has id.
func (x *runIndex) of(id int32) int {
	s := x.slot(id)
	if s < 0 || x.sparse {
		return s
	}
	return int(x.ids[s])
}

// numberRuns turns count, each slot's number of elements, into the
// slots' runs (-1 for an empty slot); a dense index counts in its own
// table. It fills offs, which has room for one entry per run and one
// more, with the runs' starts and then their total.
func numberRuns(count, offs []int32) []int32 {
	offs = offs[:0]
	var start int32
	for s, k := range count {
		if k == 0 {
			count[s] = -1
			continue
		}
		count[s] = int32(len(offs))
		offs = append(offs, start)
		start += k
	}
	return append(offs, start)
}

// FromRecording builds a Graph from an engine recording. It reports an
// error, rather than building a graph, when the recording names an event
// it does not contain.
//
// Engine recordings list each thread's events in program order and each
// location's writes in modification order, so counting the events per
// thread and the writes per location, then placing the ids in id order,
// yields every run in order. Only a run a malformed recording leaves out
// of (Index, ID) or (Stamp, ID) order gets sorted.
func FromRecording(rec *engine.Recording) (*Graph, error) {
	if rec == nil {
		return nil, fmt.Errorf("axiom: nil recording")
	}
	evs := rec.Events
	n := len(evs)
	inRange := func(id memmodel.EventID) bool { return id >= 0 && int(id) < n }
	writes, reads, fences := 0, 0, 0
	tLo, tHi := int32(math.MaxInt32), int32(math.MinInt32)
	lLo, lHi := tLo, tHi
	for i := range evs {
		ev := &evs[i]
		if int(ev.ID) != i {
			return nil, fmt.Errorf("axiom: event %d recorded at position %d", ev.ID, i)
		}
		tLo, tHi = min(tLo, int32(ev.TID)), max(tHi, int32(ev.TID))
		switch k := ev.Label.Kind; {
		case k.Writes():
			lLo, lHi = min(lLo, int32(ev.Label.Loc)), max(lHi, int32(ev.Label.Loc))
			writes++
		case k == memmodel.KindFence:
			fences++
		}
		if ev.Label.Kind.Reads() && ev.ReadsFrom != memmodel.NoEvent {
			if !inRange(ev.ReadsFrom) {
				return nil, fmt.Errorf("axiom: event %d reads from e%d, outside the recording's %d events", ev.ID, ev.ReadsFrom, n)
			}
			reads++
		}
	}
	for i, id := range rec.SCOrder {
		if !inRange(id) {
			return nil, fmt.Errorf("axiom: SC order entry %d is e%d, outside the recording's %d events", i, id, n)
		}
	}
	for _, s := range rec.SpawnLinks {
		if s.From != memmodel.NoEvent && !inRange(s.From) {
			return nil, fmt.Errorf("axiom: spawn of thread %d follows e%d, outside the recording's %d events", s.Child, s.From, n)
		}
	}
	for _, j := range rec.JoinLinks {
		if !inRange(j.To) {
			return nil, fmt.Errorf("axiom: join of thread %d at e%d, outside the recording's %d events", j.Child, j.To, n)
		}
	}

	g := &Graph{Events: evs, rec: rec, fences: int32(fences)}
	var tSlots, lSlots int
	g.threadIx, tSlots = newRunIndex(evs, tLo, tHi, n, func(ev *memmodel.Event) (int32, bool) {
		return int32(ev.TID), true
	})
	g.locIx, lSlots = newRunIndex(evs, lLo, lHi, writes, func(ev *memmodel.Event) (int32, bool) {
		return int32(ev.Label.Loc), ev.Label.Kind.Writes()
	})
	// One array holds the id lists, one the offset tables; each run table
	// gets room for one run per slot or element, whichever is fewer.
	tRuns, lRuns := min(tSlots, n), min(lSlots, writes)
	ids := make([]memmodel.EventID, n+writes+reads)
	g.po, g.mo, g.readers = carve(&ids, n), carve(&ids, writes), ids
	offs := make([]int32, tSlots+lSlots+(tRuns+1)+(lRuns+1)+(n+1))
	tCount, lCount := carve(&offs, tSlots), carve(&offs, lSlots)
	if !g.threadIx.sparse {
		g.threadIx.ids = tCount
	}
	if !g.locIx.sparse {
		g.locIx.ids = lCount
	}
	g.poOff, g.moOff = carve(&offs, tRuns+1), carve(&offs, lRuns+1)
	g.readOff = offs

	// Count each slot's elements and each write's readers, turn the counts
	// into start offsets, place every id at its run's next free position
	// (which advances each offset to its run's end), then rewind. The runs
	// are in order when every event has the po index or stamp of its
	// position in its run, as in every engine recording.
	inOrder := true
	for i := range evs {
		ev := &evs[i]
		s := g.threadIx.slot(int32(ev.TID))
		inOrder = inOrder && int(tCount[s]) == ev.Index
		tCount[s]++
		if ev.Label.Kind.Writes() {
			s := g.locIx.slot(int32(ev.Label.Loc))
			lCount[s]++
			inOrder = inOrder && memmodel.TS(lCount[s]) == ev.Stamp
		}
		if ev.Label.Kind.Reads() && ev.ReadsFrom != memmodel.NoEvent {
			g.readOff[ev.ReadsFrom+1]++
		}
	}
	g.poOff = numberRuns(tCount, g.poOff)
	g.moOff = numberRuns(lCount, g.moOff)
	for w := 1; w <= n; w++ {
		g.readOff[w] += g.readOff[w-1]
	}
	for i := range evs {
		ev := &evs[i]
		id := memmodel.EventID(i)
		place(g.po, g.poOff, g.threadIx.of(int32(ev.TID)), id)
		if ev.Label.Kind.Writes() {
			place(g.mo, g.moOff, g.locIx.of(int32(ev.Label.Loc)), id)
		}
		if ev.Label.Kind.Reads() && ev.ReadsFrom != memmodel.NoEvent {
			place(g.readers, g.readOff, int(ev.ReadsFrom), id)
		}
	}
	rewind(g.poOff)
	rewind(g.moOff)
	rewind(g.readOff)

	if !inOrder {
		g.sortRuns()
	}
	return g, nil
}

// sortRuns sorts every run a malformed recording leaves out of order:
// po runs by Index, mo runs by Stamp. The runs hold ascending ids, so a
// stable sort breaks ties by id.
func (g *Graph) sortRuns() {
	evs := g.Events
	for t := 0; t < g.threads(); t++ {
		run := g.thread(t)
		for i := 1; i < len(run); i++ {
			if evs[run[i]].Index < evs[run[i-1]].Index {
				slices.SortStableFunc(run, func(a, b memmodel.EventID) int { return cmp.Compare(evs[a].Index, evs[b].Index) })
				break
			}
		}
	}
	for l := 0; l < g.locs(); l++ {
		run := g.loc(l)
		for i := 1; i < len(run); i++ {
			if evs[run[i]].Stamp < evs[run[i-1]].Stamp {
				slices.SortStableFunc(run, func(a, b memmodel.EventID) int { return cmp.Compare(evs[a].Stamp, evs[b].Stamp) })
				break
			}
		}
	}
}

// carve cuts the next k elements off *buf.
func carve[T any](buf *[]T, k int) []T {
	s := (*buf)[:k:k]
	*buf = (*buf)[k:]
	return s
}

// place puts id at the next free position of run r, next[r], and
// advances it.
func place(ids []memmodel.EventID, next []int32, r int, id memmodel.EventID) {
	ids[next[r]] = id
	next[r]++
}

// rewind turns offsets that placing advanced to their runs' ends back
// into the runs' starts.
func rewind[T int32 | uint64](offs []T) {
	copy(offs[1:], offs[:len(offs)-1])
	offs[0] = 0
}

// threads is the number of per-thread po runs; thread returns run i.
func (g *Graph) threads() int { return len(g.poOff) - 1 }

func (g *Graph) thread(i int) []memmodel.EventID {
	return g.po[g.poOff[i]:g.poOff[i+1]:g.poOff[i+1]]
}

// tid is the thread id of po run i.
func (g *Graph) tid(i int) memmodel.ThreadID { return g.Events[g.po[g.poOff[i]]].TID }

// threadOf returns the index of tid's po run, or -1 when tid has no events.
func (g *Graph) threadOf(tid memmodel.ThreadID) int { return g.threadIx.of(int32(tid)) }

// locs is the number of per-location mo runs; loc returns run i.
func (g *Graph) locs() int { return len(g.moOff) - 1 }

func (g *Graph) loc(i int) []memmodel.EventID {
	return g.mo[g.moOff[i]:g.moOff[i+1]:g.moOff[i+1]]
}

// locID is the location of mo run i.
func (g *Graph) locID(i int) memmodel.Loc { return g.Events[g.mo[g.moOff[i]]].Label.Loc }

// locOf returns the index of loc's mo run, or -1 when nothing writes loc.
func (g *Graph) locOf(loc memmodel.Loc) int { return g.locIx.of(int32(loc)) }

// readersOf returns the reading events of write w.
func (g *Graph) readersOf(w memmodel.EventID) []memmodel.EventID {
	return g.readers[g.readOff[w]:g.readOff[w+1]]
}

// row is event i's hb row.
func (g *Graph) row(i memmodel.EventID) []uint64 {
	return g.hb[int(i)*g.words : (int(i)+1)*g.words]
}

// derive builds sw and hb, once. One allocation holds the hb matrix and,
// behind it, buildSW's scratch.
func (g *Graph) derive() {
	g.derived.Do(func() {
		n := len(g.Events)
		g.words = (n + 63) / 64
		buf := make([]uint64, n*g.words+int(g.fences)+g.threads()+1)
		g.hb = carve(&buf, n*g.words)
		g.buildSW(buf)
		g.buildHB()
	})
}

// buildSW derives synchronizes-with edges per RC20 (paper §4):
//
//	sw ≜ [E⊒rel]; ([F];po)?; rf+; (po;[F])?; [E⊒acq]
//
// For every reading event r and every write w in its rf+ ancestry (the
// direct source, then through RMWs to theirs), the source side is w itself
// when w is a release write, or any release fence po-before w; the sink
// side is r itself when r is an acquire read, or any acquire fence
// po-after r. Both fence sides scan an index of each thread's fences in
// program order, which buildSW lays out in scratch (room for every fence
// and one start per thread, and one more). Each edge is listed once, in
// the order first derived; its bit in the (still empty) hb matrix marks
// it as seen.
func (g *Graph) buildSW(scratch []uint64) {
	fences, start := scratch[:0], scratch[g.fences:]
	for t := 0; t < g.threads(); t++ {
		start[t] = uint64(len(fences))
		for _, id := range g.thread(t) {
			if g.Events[id].Label.Kind == memmodel.KindFence {
				fences = append(fences, uint64(id))
			}
		}
	}
	start[g.threads()] = uint64(len(fences))
	threadFences := func(tid memmodel.ThreadID) []uint64 {
		t := g.threadOf(tid)
		return fences[start[t]:start[t+1]]
	}

	var buf [8]memmodel.EventID
	for i := range g.Events {
		r := &g.Events[i]
		if !r.Label.Kind.Reads() || r.ReadsFrom == memmodel.NoEvent {
			continue
		}
		sinks := buf[:0]
		if r.Label.Order.IsAcquire() {
			sinks = append(sinks, r.ID)
		}
		for _, f := range threadFences(r.TID) {
			if fe := &g.Events[f]; fe.Index > r.Index && fe.Label.Order.IsAcquire() {
				sinks = append(sinks, fe.ID)
			}
		}
		if len(sinks) == 0 {
			continue
		}
		// An rf+ chain has at most len(Events) distinct writes, so the
		// bound ends a cyclic chain (malformed input) once it has visited
		// every write on it.
		w := r.ReadsFrom
		for step := 0; step < len(g.Events); step++ {
			we := &g.Events[w]
			if we.Label.Order.IsRelease() {
				g.addSW(w, sinks)
			}
			for _, f := range threadFences(we.TID) {
				fe := &g.Events[f]
				if fe.Index >= we.Index {
					break
				}
				if fe.Label.Order.IsRelease() {
					g.addSW(fe.ID, sinks)
				}
			}
			if we.Label.Kind != memmodel.KindRMW || we.ReadsFrom == memmodel.NoEvent {
				break
			}
			w = we.ReadsFrom
		}
	}
}

// addSW adds the edges src → dst for every dst in sinks not yet listed.
func (g *Graph) addSW(src memmodel.EventID, sinks []memmodel.EventID) {
	for _, dst := range sinks {
		if !g.setHB(src, dst) {
			g.sw = append(g.sw, [2]memmodel.EventID{src, dst})
		}
	}
}

// setHB sets bit (from, to) and reports whether it was already set.
func (g *Graph) setHB(from, to memmodel.EventID) bool {
	word := &g.hb[int(to)*g.words+int(from)/64]
	bit := uint64(1) << (uint(from) % 64)
	was := *word&bit != 0
	*word |= bit
	return was
}

// buildHB computes the happens-before closure hb = (po ∪ sw ∪ spawn/join
// edges)+. All edges point from lower to higher event ids in engine
// recordings (checked by Check); a backward or reflexive edge is left out
// of the closure (the cycle check reports it separately), so row i only
// holds ids below i. Each row first gets its direct predecessors, then,
// in id order, the rows of those predecessors, which are already closed.
func (g *Graph) buildHB() {
	for _, e := range g.sw { // buildSW marked every sw edge
		if e[0] >= e[1] {
			g.row(e[1])[e[0]/64] &^= 1 << (uint(e[0]) % 64)
		}
	}
	forward := func(from, to memmodel.EventID) {
		if from != memmodel.NoEvent && from < to {
			g.setHB(from, to)
		}
	}
	for t := 0; t < g.threads(); t++ {
		ids := g.thread(t)
		for i := 1; i < len(ids); i++ {
			forward(ids[i-1], ids[i])
		}
	}
	for _, s := range g.rec.SpawnLinks {
		if t := g.threadOf(s.Child); t >= 0 {
			forward(s.From, g.thread(t)[0])
		}
	}
	for _, j := range g.rec.JoinLinks {
		if t := g.threadOf(j.Child); t >= 0 {
			ids := g.thread(t)
			forward(ids[len(ids)-1], j.To)
		}
	}
	for to := range g.Events {
		row := g.row(memmodel.EventID(to))
		// Predecessor rows only hold lower ids, so the predecessors in
		// word k merge into words 0..k and never add to a word not yet
		// scanned; each word's scan sees only direct predecessors.
		for k := range row {
			for x := row[k]; x != 0; x &= x - 1 {
				j := k*64 + bits.TrailingZeros64(x)
				for m, v := range g.row(memmodel.EventID(j))[:k+1] {
					row[m] |= v
				}
			}
		}
	}
}

// HB reports whether a happens-before b.
func (g *Graph) HB(a, b memmodel.EventID) bool {
	n := memmodel.EventID(len(g.Events))
	if a < 0 || b < 0 || a >= n || b >= n {
		return false
	}
	g.derive()
	return g.row(b)[a/64]&(1<<(uint(a)%64)) != 0
}

// SW returns the derived synchronizes-with edges.
func (g *Graph) SW() [][2]memmodel.EventID {
	g.derive()
	return g.sw
}

// MO returns the modification order of loc.
func (g *Graph) MO(loc memmodel.Loc) []memmodel.EventID {
	if i := g.locOf(loc); i >= 0 {
		return g.loc(i)
	}
	return nil
}

// SCOrder returns the total order of SC events.
func (g *Graph) SCOrder() []memmodel.EventID { return g.rec.SCOrder }
