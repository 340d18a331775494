// Package coverage turns executions into canonical behavior
// fingerprints and campaigns into saturation estimates: what fraction of
// the program's weak-memory behavior space has a testing campaign
// actually seen, and is it still finding anything new?
//
// A behavior is the observable essence of one complete execution — the
// final values of the static locations, the reads-from relation (which
// write each read observed), and the per-location modification order —
// under a given memory model. Two executions with the same behavior are
// indistinguishable to an assertion, so counting distinct behaviors (the
// C11Tester evaluation metric) measures progress through the space the
// exhaustive explorer (internal/enumerate) can census exactly on
// litmus-sized programs.
//
// The Accumulator computes one uint64 FNV-1a fingerprint per run from
// the engine's event stream, canonically: events are keyed by their
// schedule-invariant (thread, program-order index) coordinates rather
// than by schedule-dependent event ids, and the per-event tuple hashes
// are sorted before the final mix, so any two schedules realizing the
// same behavior collide regardless of interleaving order. The Set
// aggregates fingerprints across a campaign — first-seen trial indices,
// observation counts, novelty gaps — with a commutative, associative
// Merge so sharded parallel campaigns produce bit-identical results in
// any merge grouping, and JSON round-tripping for the checkpoint store.
// Stats derives the online saturation estimators (Good–Turing unseen
// mass, Chao1 richness).
package coverage

import (
	"slices"

	"pctwm/internal/memmodel"
)

// FNV-1a parameters, mixed one 64-bit word at a time (the same scheme as
// the engine's final-value interning hash). Collisions are the usual
// 64-bit-hash story: ~2^-64 per pair, negligible against campaign sizes.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Tuple domain tags keep read and write tuples (and the section breaks
// of the final mix) from aliasing each other.
const (
	tagRead   uint64 = 'R'
	tagWrite  uint64 = 'W'
	tagFinals uint64 = 'F'
)

// Accumulator builds one behavior fingerprint per run. It is owned by a
// single Runner and reused across runs: all scratch (the event-id
// translation table, the tuple list, the final-value vector) is retained
// between runs, so the steady state allocates nothing.
//
// Usage per run: Reset, Observe every event in execution order,
// PushFinal the final values in static location order, Finalize.
type Accumulator struct {
	model    string
	modelTag uint64

	// idTab translates schedule-dependent event ids into canonical
	// (thread, po-index) coordinates, packed tid<<32|index. Indexed by
	// EventID; ids are assigned densely from 0, and every event passes
	// Observe before any later read can name it as a reads-from source
	// (a write executes — including into a TSO store buffer — before it
	// becomes visible), so lookups never miss.
	idTab []uint64

	// tuples holds one hash per observed read/write aspect; Finalize
	// sorts it so the fingerprint is independent of observation order.
	tuples []uint64

	// finals collects the final-value vector (static location order).
	finals []uint64
}

// pack maps an event to its canonical schedule-invariant coordinates.
// Thread ids and po indices are dense and small; 32 bits each is vastly
// more than any program the engine can run.
func pack(tid memmodel.ThreadID, index int) uint64 {
	return uint64(uint32(tid))<<32 | uint64(uint32(index))
}

// Reset prepares the accumulator for a fresh run of a program with
// staticLocs static locations under the given memory model. The
// initialization writes (event ids 0..staticLocs-1, thread 0, index i)
// never pass Observe, so their translation entries are seeded here.
func (a *Accumulator) Reset(model string, staticLocs int) {
	if a.modelTag == 0 || model != a.model {
		a.model = model
		h := fnvOffset
		for i := 0; i < len(model); i++ {
			h = (h ^ uint64(model[i])) * fnvPrime
		}
		a.modelTag = h
	}
	a.idTab = a.idTab[:0]
	for i := 0; i < staticLocs; i++ {
		a.idTab = append(a.idTab, pack(memmodel.InitThread, i))
	}
	a.tuples = a.tuples[:0]
	a.finals = a.finals[:0]
}

// Observe folds one event into the fingerprint. Every event must pass
// through (the id table needs all ids), but only reads contribute an
// rf-pair tuple and only writes a modification-order tuple; RMWs
// contribute both. Call order must follow execution order only so that
// reads-from sources are already registered — the fingerprint itself is
// order-invariant.
func (a *Accumulator) Observe(ev *memmodel.Event) {
	self := pack(ev.TID, ev.Index)
	if id := int(ev.ID); id == len(a.idTab) {
		a.idTab = append(a.idTab, self)
	} else if id >= 0 {
		for len(a.idTab) <= id {
			a.idTab = append(a.idTab, 0)
		}
		a.idTab[id] = self
	}
	kind := ev.Label.Kind
	if kind.Reads() && ev.ReadsFrom != memmodel.NoEvent {
		var src uint64
		if w := int(ev.ReadsFrom); w >= 0 && w < len(a.idTab) {
			src = a.idTab[w]
		}
		h := fnvOffset
		h = (h ^ tagRead) * fnvPrime
		h = (h ^ self) * fnvPrime
		h = (h ^ uint64(uint32(ev.Label.Loc))) * fnvPrime
		h = (h ^ src) * fnvPrime
		a.tuples = append(a.tuples, h)
	}
	if kind.Writes() {
		// Stamp is the write's 1-based position in its location's
		// modification order — the per-model extra that distinguishes
		// executions agreeing on rf and finals but not on coherence.
		h := fnvOffset
		h = (h ^ tagWrite) * fnvPrime
		h = (h ^ self) * fnvPrime
		h = (h ^ uint64(uint32(ev.Label.Loc))) * fnvPrime
		h = (h ^ uint64(ev.Label.WVal)) * fnvPrime
		h = (h ^ uint64(ev.Stamp)) * fnvPrime
		a.tuples = append(a.tuples, h)
	}
}

// PushFinal appends one final value. Callers push the mo-maximal value
// of every static location in static declaration order, giving every
// run of a program the same-length, same-order vector.
func (a *Accumulator) PushFinal(v memmodel.Value) {
	a.finals = append(a.finals, uint64(v))
}

// Finalize returns the run's behavior fingerprint and clears the
// per-run state (the scratch capacity is retained). The tuple hashes
// are sorted in place first: observation order drops out, leaving a
// pure function of {rf pairs} ∪ {mo-stamped writes} + final values +
// model.
func (a *Accumulator) Finalize() uint64 {
	slices.Sort(a.tuples)
	h := a.modelTag
	h = (h ^ uint64(len(a.tuples))) * fnvPrime
	for _, t := range a.tuples {
		h = (h ^ t) * fnvPrime
	}
	h = (h ^ tagFinals) * fnvPrime
	h = (h ^ uint64(len(a.finals))) * fnvPrime
	for _, v := range a.finals {
		h = (h ^ v) * fnvPrime
	}
	a.tuples = a.tuples[:0]
	a.finals = a.finals[:0]
	return h
}
