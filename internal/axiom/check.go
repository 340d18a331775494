package axiom

import (
	"fmt"
	"math/bits"

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
// execution is consistent). Like HB and SW, it derives hb and sw on the
// graph's first use of them.
func (g *Graph) Check() []Violation {
	g.derive()
	// One scratch array serves the whole check: the events' SC ranks,
	// then checkCoherence's bitsets and counting sort.
	scratch := make([]uint64, len(g.Events)+2*g.words+len(g.mo)+1+len(g.readers))
	ranks := carve(&scratch, len(g.Events))
	vs := g.checkWellFormed()
	vs = append(vs, g.checkCoherence(scratch)...)
	vs = append(vs, g.checkAtomicity()...)
	vs = append(vs, g.checkIrrMOSC(ranks)...)
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
//
// It walks each location's mo run from its end and keeps the run's suffix
// as two bitsets over the events: the suffix's writes and the events
// that read from them. A write w1 violates write-coherence with every
// suffix write in its hb row (mo(w1, w2) and hb(w2, w1)) and with every
// suffix reader in its row or equal to it. A read r, bucketed by the mo
// position of the first write of its location stamped after its source,
// violates read-coherence with every write and every reader of a write
// from that position on that is in r's row. Each test is a pass over one
// row, so the check costs O(n·⌈n/64⌉) words, not one HB call per pair.
//
// scratch, zeroed, has room for the two bitsets and then a counting sort
// of the reads by the mo position where their suffix starts, which leaves
// the reads of position k in byPos[start[k]:start[k+1]].
func (g *Graph) checkCoherence(scratch []uint64) []Violation {
	var vs []Violation
	sufW, sufR := carve(&scratch, g.words), carve(&scratch, g.words)
	start, byPos := carve(&scratch, len(g.mo)+1), scratch
	for i := range g.Events {
		if k := g.suffixStart(&g.Events[i]); k >= 0 {
			start[k+1]++
		}
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	for i := range g.Events {
		if k := g.suffixStart(&g.Events[i]); k >= 0 {
			byPos[start[k]] = uint64(i)
			start[k]++
		}
	}
	rewind(start)

	for l := 0; l < g.locs(); l++ {
		ids := g.loc(l)
		for q := len(ids) - 1; q >= 0; q-- {
			w1 := ids[q]
			// A row holds lower ids only, so its words past the event's
			// own are empty.
			row := g.row(w1)[:w1/64+1]
			for k, x := range row {
				for b := x & sufW[k]; b != 0; b &= b - 1 {
					w2 := bitID(k, b)
					vs = append(vs, g.violation("write-coherence", "mo(%s,%s) but the later write happens-before the earlier", w1, w2))
				}
				if k == int(w1/64) {
					x |= bit(w1)
				}
				for b := x & sufR[k]; b != 0; b &= b - 1 {
					r := bitID(k, b)
					vs = append(vs, g.violation("write-coherence", "%s reads from mo-later %s but happens-before it", r, g.Events[r].ReadsFrom))
				}
			}
			sufW[w1/64] |= bit(w1)
			for _, r := range g.readersOf(w1) {
				sufR[r/64] |= bit(r)
			}

			pos := int(g.moOff[l]) + q
			for _, e := range byPos[start[pos]:start[pos+1]] {
				r := memmodel.EventID(e)
				w := g.Events[r].ReadsFrom
				// r is in neither its own row nor, its source being
				// stamped before the suffix, the suffix's readers, so the
				// axiom's r2 ≠ r needs no test.
				for k, x := range g.row(r)[:r/64+1] {
					for b := x & sufW[k]; b != 0; b &= b - 1 {
						vs = append(vs, g.violation("read-coherence", "%s reads from %s overwritten by hb-earlier %s", r, w, bitID(k, b)))
					}
					for b := x & sufR[k]; b != 0; b &= b - 1 {
						vs = append(vs, g.violation("read-coherence", "%s reads stale value although hb-earlier %s saw a newer one", r, bitID(k, b)))
					}
				}
			}
		}
		for _, w := range ids {
			sufW[w/64] &^= bit(w)
			for _, r := range g.readersOf(w) {
				sufR[r/64] &^= bit(r)
			}
		}
	}
	return vs
}

// suffixStart returns the position in mo where read r's fr suffix
// starts: the first write to r's location stamped after r's source. It
// returns -1 when r reads nothing or no write is stamped after its source.
func (g *Graph) suffixStart(r *memmodel.Event) int {
	if !r.Label.Kind.Reads() || r.ReadsFrom == memmodel.NoEvent {
		return -1
	}
	l := g.locOf(r.Label.Loc)
	if l < 0 {
		return -1
	}
	ids := g.loc(l)
	ts := g.Events[r.ReadsFrom].Stamp
	lo, hi := 0, len(ids)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); g.Events[ids[m]].Stamp <= ts {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(ids) {
		return -1
	}
	return int(g.moOff[l]) + lo
}

// bit is id's bit in its bitset word; bitID is the id of the lowest set
// bit of b in word k.
func bit(id memmodel.EventID) uint64 { return 1 << (uint(id) % 64) }

func bitID(k int, b uint64) memmodel.EventID {
	return memmodel.EventID(k*64 + bits.TrailingZeros64(b))
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
// same-location SC accesses. ranks, zeroed, has room for every event's
// position in the SC order plus one (its last when listed twice; 0 when
// absent).
func (g *Graph) checkIrrMOSC(ranks []uint64) []Violation {
	for rank, id := range g.SCOrder() {
		ranks[id] = uint64(rank) + 1
	}
	var vs []Violation
	for l := 0; l < g.locs(); l++ {
		ids := g.loc(l)
		for i, w1 := range ids {
			r1 := ranks[w1]
			if r1 == 0 {
				continue
			}
			for _, w2 := range ids[i+1:] {
				if r2 := ranks[w2]; r2 != 0 && r2 < r1 {
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
	sc := g.SCOrder()
	for i := 1; i < len(sc); i++ {
		check("SC", sc[i-1], sc[i])
	}
	return vs
}
