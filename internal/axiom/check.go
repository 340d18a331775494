package axiom

import (
	"fmt"
	"slices"

	"pctwm/internal/memmodel"
)

// Violation reports one failed consistency axiom.
type Violation struct {
	Axiom  string
	Events []memmodel.EventID
	Msg    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s violated: %s (events %v)", v.Axiom, v.Msg, v.Events)
}

func (g *Graph) violation(axiom, format string, evs ...memmodel.EventID) Violation {
	args := make([]any, len(evs))
	for i, id := range evs {
		if int(id) < len(g.Events) {
			args[i] = g.Events[id].String()
		} else {
			args[i] = fmt.Sprintf("e%d", id)
		}
	}
	return Violation{Axiom: axiom, Events: evs, Msg: fmt.Sprintf(format, args...)}
}

// Check verifies the well-formedness of the graph and the C11 consistency
// axioms of paper §4, returning every violation found (nil when the
// execution is consistent).
func (g *Graph) Check() []Violation {
	var vs []Violation
	vs = append(vs, g.checkWellFormed()...)
	vs = append(vs, g.checkCoherence()...)
	vs = append(vs, g.checkAtomicity()...)
	vs = append(vs, g.checkIrrMOSC()...)
	vs = append(vs, g.checkSCAcyclic()...)
	return vs
}

// checkWellFormed validates the basic structure: rf matches locations and
// values, mo stamps are dense per location, po indices are dense per
// thread.
func (g *Graph) checkWellFormed() []Violation {
	var vs []Violation
	for _, ev := range g.Events {
		if ev.Label.Kind.Reads() {
			if ev.ReadsFrom == memmodel.NoEvent {
				vs = append(vs, g.violation("wf-rf", "read %s has no rf source", ev.ID))
				continue
			}
			w := g.Events[ev.ReadsFrom]
			if !w.Label.Kind.Writes() {
				vs = append(vs, g.violation("wf-rf", "%s reads from non-write %s", ev.ID, w.ID))
			}
			if w.Label.Loc != ev.Label.Loc {
				vs = append(vs, g.violation("wf-rf", "%s reads from different location %s", ev.ID, w.ID))
			}
			if w.Label.WVal != ev.Label.RVal {
				vs = append(vs, g.violation("wf-rf", "%s observes a value not written by %s", ev.ID, w.ID))
			}
		}
	}
	for l := 0; l < g.locs(); l++ {
		for i, id := range g.loc(l) {
			if got := g.Events[id].Stamp; int(got) != i+1 {
				vs = append(vs, g.violation("wf-mo",
					fmt.Sprintf("location %d: write %%s has stamp %d at mo position %d", g.locID(l), got, i+1), id))
			}
		}
	}
	for t := 0; t < g.threads(); t++ {
		for i, id := range g.thread(t) {
			if got := g.Events[id].Index; got != i {
				vs = append(vs, g.violation("wf-po",
					fmt.Sprintf("thread %d: event %%s has po index %d at position %d", g.tid(t), got, i), id))
			}
		}
	}
	return vs
}

// checkCoherence verifies sc-per-location:
//
//	mo; rf?; hb? irreflexive   (write-coherence)
//	fr; rf?; hb  irreflexive   (read-coherence)
func (g *Graph) checkCoherence() []Violation {
	var vs []Violation
	for l := 0; l < g.locs(); l++ {
		ids := g.loc(l)
		for i, w1 := range ids {
			for _, w2 := range ids[i+1:] { // mo(w1, w2)
				// write-coherence, rf skipped: hb?(w2, w1)
				if g.HB(w2, w1) {
					vs = append(vs, g.violation("write-coherence", "mo(%s,%s) but the later write happens-before the earlier", w1, w2))
				}
				for _, r := range g.readersOf(w2) {
					// write-coherence with rf: hb?(r, w1) incl. r = w1
					if r == w1 || g.HB(r, w1) {
						vs = append(vs, g.violation("write-coherence", "%s reads from mo-later %s but happens-before it", r, w2))
					}
				}
			}
		}
	}
	// read-coherence: fr(r, w'); rf?(w', y); hb(y, r).
	for i := range g.Events {
		ev := &g.Events[i]
		if !ev.Label.Kind.Reads() || ev.ReadsFrom == memmodel.NoEvent {
			continue
		}
		l := g.locOf(ev.Label.Loc)
		if l < 0 {
			continue
		}
		r := ev.ID
		w := &g.Events[ev.ReadsFrom]
		// fr needs mo(w, w'): the run's suffix stamped after w.
		ids := g.loc(l)
		first, _ := slices.BinarySearchFunc(ids, w.Stamp, func(id memmodel.EventID, ts memmodel.TS) int {
			if g.Events[id].Stamp <= ts {
				return -1
			}
			return 1
		})
		for _, wp := range ids[first:] {
			if g.HB(wp, r) {
				vs = append(vs, g.violation("read-coherence", "%s reads from %s overwritten by hb-earlier %s",
					r, w.ID, wp))
			}
			for _, r2 := range g.readersOf(wp) {
				if r2 != r && g.HB(r2, r) {
					vs = append(vs, g.violation("read-coherence", "%s reads stale value although hb-earlier %s saw a newer one", r, r2))
				}
			}
		}
	}
	return vs
}

// checkAtomicity verifies fr; mo irreflexive: every RMW reads its
// immediate mo-predecessor.
func (g *Graph) checkAtomicity() []Violation {
	var vs []Violation
	for _, ev := range g.Events {
		if ev.Label.Kind != memmodel.KindRMW || ev.ReadsFrom == memmodel.NoEvent {
			continue
		}
		w := g.Events[ev.ReadsFrom]
		if w.Stamp+1 != ev.Stamp {
			vs = append(vs, g.violation("atomicity", "RMW %s does not read its immediate mo-predecessor (%s)", ev.ID, w.ID))
		}
	}
	return vs
}

// checkIrrMOSC verifies mo; SC irreflexive: SC order agrees with mo on
// same-location SC accesses.
func (g *Graph) checkIrrMOSC() []Violation {
	var vs []Violation
	for l := 0; l < g.locs(); l++ {
		ids := g.loc(l)
		for i, w1 := range ids {
			r1 := g.scRank[w1]
			if r1 < 0 {
				continue
			}
			for _, w2 := range ids[i+1:] {
				if r2 := g.scRank[w2]; r2 >= 0 && r2 < r1 {
					vs = append(vs, g.violation("irrMOSC", "mo(%s,%s) contradicts SC order", w1, w2))
				}
			}
		}
	}
	return vs
}

// checkSCAcyclic verifies the C11Tester (SC) axiom: hb ∪ rf ∪ SC acyclic.
// Engine recordings allocate event ids in execution order, so acyclicity
// reduces to every edge pointing forward.
func (g *Graph) checkSCAcyclic() []Violation {
	var vs []Violation
	check := func(rel string, from, to memmodel.EventID) {
		if from != memmodel.NoEvent && from >= to {
			vs = append(vs, g.violation("SC", rel+" edge %s -> %s against execution order", from, to))
		}
	}
	for t := 0; t < g.threads(); t++ {
		ids := g.thread(t)
		for i := 1; i < len(ids); i++ {
			check("po", ids[i-1], ids[i])
		}
	}
	for _, e := range g.sw {
		check("sw", e[0], e[1])
	}
	for _, ev := range g.Events {
		if ev.Label.Kind.Reads() && ev.ReadsFrom != memmodel.NoEvent {
			check("rf", ev.ReadsFrom, ev.ID)
		}
	}
	for i := 1; i < len(g.scOrder); i++ {
		check("SC", g.scOrder[i-1], g.scOrder[i])
	}
	return vs
}
