// Package core implements the testing strategies the paper studies:
//
//   - Random: C11Tester's naive random exploration (§6, "Random Testing in
//     C11Tester": uniform thread choice, uniform reads-from choice);
//   - PCT: the paper's weak-memory-aware variant of the original PCT
//     priority scheduler (§6, "Implementation");
//   - PCTWM: the paper's contribution, Algorithm 1 + 2;
//   - POS: partial order sampling, a randomized baseline from the
//     related work (§7);
//   - AblatedPCTWM: PCTWM with one ingredient of §5.2 switched off.
//
// All are engine.Strategy implementations. PCT and PCTWM share one
// priority order (priorities); PCTBound and PCTWMBound give the
// theoretical detection-probability lower bounds of §2.2 and §5.4.
package core

import (
	"math/rand"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// Random is the C11Tester testing algorithm: at every step it (1) picks
// the next thread uniformly among the enabled threads and (2) lets reads
// read from a write selected uniformly among the coherence-legal visible
// writes.
type Random struct {
	rng engine.Rand
}

// NewRandom returns the C11Tester-style naive random strategy.
func NewRandom() *Random { return &Random{} }

// Name implements engine.Strategy.
func (s *Random) Name() string { return "c11tester" }

// Begin implements engine.Strategy.
func (s *Random) Begin(info engine.ProgramInfo, _ *rand.Rand) { s.rng = info.Rand }

// NextThread picks uniformly among enabled threads.
func (s *Random) NextThread(enabled []engine.PendingOp) memmodel.ThreadID {
	return enabled[s.rng.Intn(len(enabled))].TID
}

// PickRead picks uniformly among all legal candidates.
func (s *Random) PickRead(rc engine.ReadContext) int {
	return s.rng.Intn(len(rc.Candidates))
}

// OnEvent implements engine.Strategy.
func (s *Random) OnEvent(*memmodel.Event) {}

// OnThreadStart implements engine.Strategy.
func (s *Random) OnThreadStart(_, _ memmodel.ThreadID) {}

// OnSpin implements engine.Strategy. Random scheduling needs no livelock
// escape: every enabled thread keeps getting scheduled with positive
// probability.
func (s *Random) OnSpin(memmodel.ThreadID) {}
