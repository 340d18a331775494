// Package axiom builds execution graphs X = ⟨E, po, rf, mo, SC⟩ from
// engine recordings and checks the C11 consistency axioms of the paper's
// §4: write/read coherence, RMW atomicity, irrMOSC, and the C11Tester (SC)
// axiom that hb ∪ rf ∪ SC is acyclic. The engine's view machine is
// supposed to generate only consistent executions; tests use this package
// to enforce that as an invariant.
package axiom

import (
	"fmt"
	"slices"
	"sort"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// Graph is an execution graph. Events are indexed by EventID, which equals
// execution order (the engine allocates ids monotonically).
type Graph struct {
	Events []memmodel.Event

	byThread map[memmodel.ThreadID][]memmodel.EventID // po order per thread
	moByLoc  map[memmodel.Loc][]memmodel.EventID      // stamp order per location
	// locs is moByLoc's keys in ascending order: renderings and
	// violation lists range over it, not the map, so their output is the
	// same on every run.
	locs    []memmodel.Loc
	scOrder []memmodel.EventID
	scRank  map[memmodel.EventID]int

	spawn []engine.SpawnLink
	joins []engine.JoinLink

	// rfSources[r] is the set of writes reaching read r through rf+
	// (chains of RMWs); the direct source is the last element.
	rfSources map[memmodel.EventID][]memmodel.EventID

	sw [][2]memmodel.EventID // synchronizes-with edges (derived)
	hb []bitset              // hb[i].has(j) ⇔ hb(j, i): predecessors of i
}

// FromRecording builds a Graph from an engine recording.
func FromRecording(rec *engine.Recording) (*Graph, error) {
	if rec == nil {
		return nil, fmt.Errorf("axiom: nil recording")
	}
	g := &Graph{
		Events:    rec.Events,
		byThread:  make(map[memmodel.ThreadID][]memmodel.EventID),
		moByLoc:   make(map[memmodel.Loc][]memmodel.EventID),
		scOrder:   rec.SCOrder,
		scRank:    make(map[memmodel.EventID]int, len(rec.SCOrder)),
		spawn:     rec.SpawnLinks,
		joins:     rec.JoinLinks,
		rfSources: make(map[memmodel.EventID][]memmodel.EventID),
	}
	for i, ev := range g.Events {
		if int(ev.ID) != i {
			return nil, fmt.Errorf("axiom: event %d recorded at position %d", ev.ID, i)
		}
		g.byThread[ev.TID] = append(g.byThread[ev.TID], ev.ID)
		if ev.Label.Kind.Writes() {
			g.moByLoc[ev.Label.Loc] = append(g.moByLoc[ev.Label.Loc], ev.ID)
		}
	}
	for _, evs := range g.byThread {
		ids := evs
		sort.Slice(ids, func(i, j int) bool {
			return g.Events[ids[i]].Index < g.Events[ids[j]].Index
		})
	}
	g.locs = make([]memmodel.Loc, 0, len(g.moByLoc))
	for loc, ids := range g.moByLoc {
		g.locs = append(g.locs, loc)
		sort.Slice(ids, func(i, j int) bool {
			return g.Events[ids[i]].Stamp < g.Events[ids[j]].Stamp
		})
	}
	slices.Sort(g.locs)
	for rank, id := range g.scOrder {
		g.scRank[id] = rank
	}
	g.buildRFSources()
	g.buildSW()
	g.buildHB()
	return g, nil
}

// buildRFSources computes, for each reading event, the rf+ ancestry: the
// direct rf source plus, when that source is an RMW, its sources in turn.
func (g *Graph) buildRFSources() {
	for _, ev := range g.Events {
		if !ev.Label.Kind.Reads() || ev.ReadsFrom == memmodel.NoEvent {
			continue
		}
		var anc []memmodel.EventID
		w := ev.ReadsFrom
		for {
			anc = append(anc, w)
			we := g.Events[w]
			if we.Label.Kind != memmodel.KindRMW || we.ReadsFrom == memmodel.NoEvent {
				break
			}
			w = we.ReadsFrom
		}
		g.rfSources[ev.ID] = anc
	}
}

// buildSW derives synchronizes-with edges per RC20 (paper §4):
//
//	sw ≜ [E⊒rel]; ([F];po)?; rf+; (po;[F])?; [E⊒acq]
//
// For every reading event r and every write w in its rf+ ancestry, the
// source side is w itself when w is a release write, or any release fence
// po-before w; the sink side is r itself when r is an acquire read, or any
// acquire fence po-after r.
func (g *Graph) buildSW() {
	seen := make(map[[2]memmodel.EventID]bool)
	add := func(src, dst memmodel.EventID) {
		k := [2]memmodel.EventID{src, dst}
		if !seen[k] {
			seen[k] = true
			g.sw = append(g.sw, k)
		}
	}
	for _, ev := range g.Events {
		anc := g.rfSources[ev.ID]
		if len(anc) == 0 {
			continue
		}
		sinks := g.sinkEvents(ev)
		if len(sinks) == 0 {
			continue
		}
		for _, w := range anc {
			for _, src := range g.sourceEvents(w) {
				for _, dst := range sinks {
					add(src, dst)
				}
			}
		}
	}
}

// sourceEvents returns the sw sources that write w enables: w when it is
// a release write, plus every release fence po-before w in w's thread.
func (g *Graph) sourceEvents(w memmodel.EventID) []memmodel.EventID {
	we := g.Events[w]
	var srcs []memmodel.EventID
	if we.Label.Order.IsRelease() {
		srcs = append(srcs, w)
	}
	for _, id := range g.byThread[we.TID] {
		fe := g.Events[id]
		if fe.Index >= we.Index {
			break
		}
		if fe.Label.Kind == memmodel.KindFence && fe.Label.Order.IsRelease() {
			srcs = append(srcs, id)
		}
	}
	return srcs
}

// sinkEvents returns the sw sinks that reading event r enables: r when it
// is an acquire read, plus every acquire fence po-after r in r's thread.
func (g *Graph) sinkEvents(r memmodel.Event) []memmodel.EventID {
	var sinks []memmodel.EventID
	if r.Label.Order.IsAcquire() {
		sinks = append(sinks, r.ID)
	}
	for _, id := range g.byThread[r.TID] {
		fe := g.Events[id]
		if fe.Index <= r.Index {
			continue
		}
		if fe.Label.Kind == memmodel.KindFence && fe.Label.Order.IsAcquire() {
			sinks = append(sinks, id)
		}
	}
	return sinks
}

// buildHB computes the happens-before closure hb = (po ∪ sw ∪ spawn/join
// edges)+. All edges point from lower to higher event ids in engine
// recordings (checked by Check), so one forward pass suffices.
func (g *Graph) buildHB() {
	n := len(g.Events)
	g.hb = make([]bitset, n)
	for i := range g.hb {
		g.hb[i] = newBitset(n)
	}
	addEdge := func(from, to memmodel.EventID) {
		if from == memmodel.NoEvent || int(from) >= n || int(to) >= n || from == to {
			return
		}
		if from > to {
			// Backward edge: recorded violations are reported by Check;
			// for closure purposes we ignore it (the cycle check catches
			// it separately).
			return
		}
		g.hb[to].set(int(from))
		g.hb[to].or(g.hb[from])
	}
	// Gather direct edges sorted by target so predecessors close first.
	type edge struct{ from, to memmodel.EventID }
	var edges []edge
	for _, ids := range g.byThread {
		for i := 1; i < len(ids); i++ {
			edges = append(edges, edge{ids[i-1], ids[i]})
		}
	}
	for _, e := range g.sw {
		edges = append(edges, edge{e[0], e[1]})
	}
	for _, s := range g.spawn {
		if ids := g.byThread[s.Child]; len(ids) > 0 {
			edges = append(edges, edge{s.From, ids[0]})
		}
	}
	for _, j := range g.joins {
		if ids := g.byThread[j.Child]; len(ids) > 0 {
			edges = append(edges, edge{ids[len(ids)-1], j.To})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].to < edges[j].to })
	for _, e := range edges {
		addEdge(e.from, e.to)
	}
}

// HB reports whether a happens-before b.
func (g *Graph) HB(a, b memmodel.EventID) bool {
	if int(b) >= len(g.hb) || a == memmodel.NoEvent {
		return false
	}
	return g.hb[b].has(int(a))
}

// SW returns the derived synchronizes-with edges.
func (g *Graph) SW() [][2]memmodel.EventID { return g.sw }

// MO returns the modification order of loc.
func (g *Graph) MO(loc memmodel.Loc) []memmodel.EventID { return g.moByLoc[loc] }

// SCOrder returns the total order of SC events.
func (g *Graph) SCOrder() []memmodel.EventID { return g.scOrder }
