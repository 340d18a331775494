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
	"math/bits"
	"slices"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// Graph is an execution graph. Events are indexed by EventID, which equals
// execution order (the engine allocates ids monotonically).
//
// Every relation lives in flat arrays built once per recording, with no
// maps: building a graph costs a handful of allocations however many
// events, threads and locations the execution has.
type Graph struct {
	Events []memmodel.Event

	// po holds every event, grouped into one run per thread: threads in
	// ascending id order, each run in program order (sorted by TID,
	// Index, ID). Run i is po[poOff[i]:poOff[i+1]].
	po    []memmodel.EventID
	poOff []int32
	// mo holds every write, grouped into one run per location: locations
	// in ascending order, each run in modification order (sorted by Loc,
	// Stamp, ID). Run i is mo[moOff[i]:moOff[i+1]].
	mo    []memmodel.EventID
	moOff []int32
	// readers[readOff[w]:readOff[w+1]] are the reading events whose rf
	// source is w, in execution order.
	readers []memmodel.EventID
	readOff []int32

	scOrder []memmodel.EventID
	scRank  []int32 // each event's position in scOrder; -1 if absent

	spawn []engine.SpawnLink
	joins []engine.JoinLink

	sw [][2]memmodel.EventID // synchronizes-with edges (derived)
	// hb holds one row of words uint64s per event: bit j of row i is set
	// ⇔ hb(j, i), so row i is the set of i's predecessors.
	hb    []uint64
	words int
}

// FromRecording builds a Graph from an engine recording. It reports an
// error, rather than building a graph, when the recording names an event
// it does not contain.
func FromRecording(rec *engine.Recording) (*Graph, error) {
	if rec == nil {
		return nil, fmt.Errorf("axiom: nil recording")
	}
	evs := rec.Events
	n := len(evs)
	inRange := func(id memmodel.EventID) bool { return id >= 0 && int(id) < n }
	writes, reads := 0, 0
	for i := range evs {
		ev := &evs[i]
		if int(ev.ID) != i {
			return nil, fmt.Errorf("axiom: event %d recorded at position %d", ev.ID, i)
		}
		if ev.Label.Kind.Writes() {
			writes++
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

	g := &Graph{
		Events:  evs,
		scOrder: rec.SCOrder,
		spawn:   rec.SpawnLinks,
		joins:   rec.JoinLinks,
		words:   (n + 63) / 64,
	}
	// Two backing arrays hold the id lists and the offset tables; each run
	// table gets room for one run per element it indexes.
	ids := make([]memmodel.EventID, n+writes+reads)
	g.po, g.mo, g.readers = carve(&ids, n)[:0], carve(&ids, writes)[:0], carve(&ids, reads)
	offs := make([]int32, (n+1)+(writes+1)+(n+1)+n)
	g.poOff, g.moOff = carve(&offs, n+1)[:0], carve(&offs, writes+1)[:0]
	g.readOff, g.scRank = carve(&offs, n+1), carve(&offs, n)

	for i := range evs {
		g.po = append(g.po, memmodel.EventID(i))
		if evs[i].Label.Kind.Writes() {
			g.mo = append(g.mo, memmodel.EventID(i))
		}
	}
	slices.SortFunc(g.po, func(a, b memmodel.EventID) int {
		ea, eb := &evs[a], &evs[b]
		if ea.TID != eb.TID {
			return cmp.Compare(ea.TID, eb.TID)
		}
		if ea.Index != eb.Index {
			return cmp.Compare(ea.Index, eb.Index)
		}
		return cmp.Compare(a, b)
	})
	slices.SortFunc(g.mo, func(a, b memmodel.EventID) int {
		ea, eb := &evs[a], &evs[b]
		if ea.Label.Loc != eb.Label.Loc {
			return cmp.Compare(ea.Label.Loc, eb.Label.Loc)
		}
		if ea.Stamp != eb.Stamp {
			return cmp.Compare(ea.Stamp, eb.Stamp)
		}
		return cmp.Compare(a, b)
	})
	g.poOff = runOffsets(g.poOff, g.po, func(a, b memmodel.EventID) bool { return evs[a].TID == evs[b].TID })
	g.moOff = runOffsets(g.moOff, g.mo, func(a, b memmodel.EventID) bool { return evs[a].Label.Loc == evs[b].Label.Loc })

	// readers as compressed rows: count per source, prefix-sum into start
	// offsets, fill (each fill advances the source's offset to its end),
	// then shift the offsets back by one row.
	for i := range evs {
		if ev := &evs[i]; ev.Label.Kind.Reads() && ev.ReadsFrom != memmodel.NoEvent {
			g.readOff[ev.ReadsFrom+1]++
		}
	}
	for w := 1; w <= n; w++ {
		g.readOff[w] += g.readOff[w-1]
	}
	for i := range evs {
		if ev := &evs[i]; ev.Label.Kind.Reads() && ev.ReadsFrom != memmodel.NoEvent {
			g.readers[g.readOff[ev.ReadsFrom]] = ev.ID
			g.readOff[ev.ReadsFrom]++
		}
	}
	copy(g.readOff[1:], g.readOff[:n])
	if n > 0 {
		g.readOff[0] = 0
	}

	for i := range g.scRank {
		g.scRank[i] = -1
	}
	for rank, id := range g.scOrder {
		g.scRank[id] = int32(rank)
	}

	g.hb = make([]uint64, n*g.words)
	g.buildSW()
	g.buildHB()
	return g, nil
}

// carve cuts the next k elements off *buf.
func carve[T any](buf *[]T, k int) []T {
	s := (*buf)[:k:k]
	*buf = (*buf)[k:]
	return s
}

// runOffsets appends to offs the start of every run of ids whose
// neighbours are in the same group, then len(ids).
func runOffsets(offs []int32, ids []memmodel.EventID, same func(a, b memmodel.EventID) bool) []int32 {
	for i := range ids {
		if i == 0 || !same(ids[i-1], ids[i]) {
			offs = append(offs, int32(i))
		}
	}
	return append(offs, int32(len(ids)))
}

// threads is the number of per-thread po runs; thread returns run i.
func (g *Graph) threads() int { return len(g.poOff) - 1 }

func (g *Graph) thread(i int) []memmodel.EventID {
	return g.po[g.poOff[i]:g.poOff[i+1]:g.poOff[i+1]]
}

// tid is the thread id of po run i.
func (g *Graph) tid(i int) memmodel.ThreadID { return g.Events[g.po[g.poOff[i]]].TID }

// threadOf returns the index of tid's po run, or -1 when tid has no events.
func (g *Graph) threadOf(tid memmodel.ThreadID) int {
	i, ok := slices.BinarySearchFunc(g.poOff[:g.threads()], tid, func(off int32, tid memmodel.ThreadID) int {
		return cmp.Compare(g.Events[g.po[off]].TID, tid)
	})
	if !ok {
		return -1
	}
	return i
}

// locs is the number of per-location mo runs; loc returns run i.
func (g *Graph) locs() int { return len(g.moOff) - 1 }

func (g *Graph) loc(i int) []memmodel.EventID {
	return g.mo[g.moOff[i]:g.moOff[i+1]:g.moOff[i+1]]
}

// locID is the location of mo run i.
func (g *Graph) locID(i int) memmodel.Loc { return g.Events[g.mo[g.moOff[i]]].Label.Loc }

// locOf returns the index of loc's mo run, or -1 when nothing writes loc.
func (g *Graph) locOf(loc memmodel.Loc) int {
	i, ok := slices.BinarySearchFunc(g.moOff[:g.locs()], loc, func(off int32, loc memmodel.Loc) int {
		return cmp.Compare(g.Events[g.mo[off]].Label.Loc, loc)
	})
	if !ok {
		return -1
	}
	return i
}

// readersOf returns the reading events of write w.
func (g *Graph) readersOf(w memmodel.EventID) []memmodel.EventID {
	return g.readers[g.readOff[w]:g.readOff[w+1]]
}

// row is event i's hb row.
func (g *Graph) row(i memmodel.EventID) []uint64 {
	return g.hb[int(i)*g.words : (int(i)+1)*g.words]
}

// buildSW derives synchronizes-with edges per RC20 (paper §4):
//
//	sw ≜ [E⊒rel]; ([F];po)?; rf+; (po;[F])?; [E⊒acq]
//
// For every reading event r and every write w in its rf+ ancestry (the
// direct source, then through RMWs to theirs), the source side is w itself
// when w is a release write, or any release fence po-before w; the sink
// side is r itself when r is an acquire read, or any acquire fence
// po-after r. Each edge is listed once, in the order first derived; its
// bit in the (still empty) hb matrix marks it as seen.
func (g *Graph) buildSW() {
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
		for _, f := range g.thread(g.threadOf(r.TID)) {
			if fe := &g.Events[f]; fe.Index > r.Index && fe.Label.Kind == memmodel.KindFence && fe.Label.Order.IsAcquire() {
				sinks = append(sinks, f)
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
			for _, f := range g.thread(g.threadOf(we.TID)) {
				fe := &g.Events[f]
				if fe.Index >= we.Index {
					break
				}
				if fe.Label.Kind == memmodel.KindFence && fe.Label.Order.IsRelease() {
					g.addSW(f, sinks)
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
// of the closure (the cycle check reports it separately). Each row first
// gets its direct predecessors, then, in id order, the rows of those
// predecessors, which are already closed.
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
	for _, s := range g.spawn {
		if t := g.threadOf(s.Child); t >= 0 {
			forward(s.From, g.thread(t)[0])
		}
	}
	for _, j := range g.joins {
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
	return g.row(b)[a/64]&(1<<(uint(a)%64)) != 0
}

// SW returns the derived synchronizes-with edges.
func (g *Graph) SW() [][2]memmodel.EventID { return g.sw }

// MO returns the modification order of loc.
func (g *Graph) MO(loc memmodel.Loc) []memmodel.EventID {
	if i := g.locOf(loc); i >= 0 {
		return g.loc(i)
	}
	return nil
}

// SCOrder returns the total order of SC events.
func (g *Graph) SCOrder() []memmodel.EventID { return g.scOrder }
