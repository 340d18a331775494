package core

import (
	"math/rand"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// priorities is the thread priority order PCT (§2.2) and PCTWM
// (Algorithm 1) share: every thread starts at a random rank above d
// reserved low slots, a PCT change point or a PCTWM delay moves a thread
// down into a slot, and the highest-priority enabled thread runs.
//
// Priority invariants (the bounds 1/(t·k^(d−1)) of §2.2 and 1/(h·kcom)^d
// of §5.4 assume all of them):
//
//   - every live thread holds a priority distinct from every other's, at
//     all times: the high band is a uniformly random rank permutation
//     (see start), each reserved slot d … 1 is taken by at most one
//     thread (one per sampled change point or tuple position), and spin
//     demotes to a fresh strictly-decreasing minimum;
//   - start never produces a priority in the reserved range (…, d]:
//     high-band priorities are ≥ d+1 = highBase;
//   - highest's lowest-index tie-break is therefore unreachable in steady
//     state; it remains only as a deterministic safety net.
type priorities struct {
	prio []int // index = tid-1
	// band lists the threads currently holding high-band priorities in
	// ascending priority order; prio[band[i]-1] == highBase + i. Moved
	// threads leave the band (their slots above keep their values — gaps
	// are harmless, distinctness is what matters).
	band     []memmodel.ThreadID
	highBase int
	minPrio  int
}

// reset clears the priorities for a run at bug depth d.
func (p *priorities) reset(d int) {
	p.prio = p.prio[:0]
	p.band = p.band[:0]
	p.highBase = d + 1
	p.minPrio = 0
}

// start gives tid a fresh high priority, distinct from every other live
// thread's: tid is inserted at a uniformly random rank of the band and
// the band is renumbered from highBase. Inserting each arrival at a
// uniform rank yields a uniformly random permutation of thread ranks —
// the "random distinct priorities" both bounds assume — without knowing
// the final thread count up front. Moved threads are not in the band and
// keep their low priorities. The tables are reused across runs, so the
// steady state allocates nothing.
func (p *priorities) start(r *rand.Rand, tid memmodel.ThreadID) {
	at := r.Intn(len(p.band) + 1)
	p.band = append(p.band, 0)
	copy(p.band[at+1:], p.band[at:])
	p.band[at] = tid
	for len(p.prio) < int(tid) {
		p.prio = append(p.prio, 0)
	}
	for i, id := range p.band {
		p.prio[id-1] = p.highBase + i
	}
}

// move takes tid out of the band to priority pr, so later starts cannot
// renumber it back up.
func (p *priorities) move(tid memmodel.ThreadID, pr int) {
	for i, id := range p.band {
		if id == tid {
			p.band = append(p.band[:i], p.band[i+1:]...)
			break
		}
	}
	p.prio[tid-1] = pr
}

// spin moves a livelocked thread below every other priority. minPrio
// decreases monotonically, so repeated spins keep priorities distinct.
func (p *priorities) spin(tid memmodel.ThreadID) {
	p.minPrio--
	p.move(tid, p.minPrio)
}

// highest returns the index in enabled of the operation whose thread has
// the highest priority. Every enabled thread has started, so its slot
// exists and is indexed directly. The strict '>' keeps the lowest index
// on equal priorities.
func (p *priorities) highest(enabled []engine.PendingOp) int {
	best := 0
	bestPrio := p.prio[enabled[0].TID-1]
	for i := 1; i < len(enabled); i++ {
		if pr := p.prio[enabled[i].TID-1]; pr > bestPrio {
			best, bestPrio = i, pr
		}
	}
	return best
}
