package core

import (
	"math/rand"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// POS is the partial order sampling algorithm (Yuan, Yang, Gu, CAV 2018),
// one of the randomized baselines the paper's related work discusses
// (§7). Every pending event carries an independently sampled random
// priority; the scheduler runs the highest-priority pending event and
// resamples the priorities of events that "conflict" with the executed
// one (same-location accesses with at least one write), which makes POS
// cover partial orders more uniformly than a random walk. Reads-from
// choices are uniform among the coherence-legal candidates, like the
// paper's PCT variant.
type POS struct {
	rng  *rand.Rand
	prio map[eventKey]float64
}

// eventKey identifies a pending event: the thread and its po index.
type eventKey struct {
	tid   memmodel.ThreadID
	index int
}

// NewPOS returns a partial order sampling strategy.
func NewPOS() *POS { return &POS{} }

// Name implements engine.Strategy.
func (s *POS) Name() string { return "pos" }

// Begin implements engine.Strategy.
func (s *POS) Begin(_ engine.ProgramInfo, r *rand.Rand) {
	s.rng = r
	s.prio = make(map[eventKey]float64)
}

func (s *POS) priority(op engine.PendingOp) float64 {
	key := eventKey{op.TID, op.Index}
	p, ok := s.prio[key]
	if !ok {
		p = s.rng.Float64()
		s.prio[key] = p
	}
	return p
}

// NextThread runs the pending event with the highest sampled priority,
// then resamples priorities of pending events racing with it.
func (s *POS) NextThread(enabled []engine.PendingOp) memmodel.ThreadID {
	best := enabled[0]
	bestPrio := s.priority(best)
	for _, op := range enabled[1:] {
		if p := s.priority(op); p > bestPrio {
			best, bestPrio = op, p
		}
	}
	// Resample events that conflict with the chosen one: same location,
	// at least one writer.
	if best.Kind.IsMemoryAccess() && best.Loc != memmodel.NoLoc {
		for _, op := range enabled {
			if op.TID == best.TID || op.Loc != best.Loc {
				continue
			}
			if !best.Kind.Writes() && !op.Kind.Writes() {
				continue
			}
			s.prio[eventKey{op.TID, op.Index}] = s.rng.Float64()
		}
	}
	// Drop the executed event's entry; its thread's next op gets a fresh
	// sample.
	delete(s.prio, eventKey{best.TID, best.Index})
	return best.TID
}

// PickRead picks uniformly among all legal candidates.
func (s *POS) PickRead(rc engine.ReadContext) int {
	return s.rng.Intn(len(rc.Candidates))
}

// OnEvent implements engine.Strategy.
func (s *POS) OnEvent(*memmodel.Event) {}

// OnThreadStart implements engine.Strategy.
func (s *POS) OnThreadStart(_, _ memmodel.ThreadID) {}

// OnSpin implements engine.Strategy. POS needs no livelock escape: every
// enabled event keeps a positive probability of being scheduled after
// each resampling.
func (s *POS) OnSpin(memmodel.ThreadID) {}
