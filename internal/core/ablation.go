package core

import (
	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// Ablation switches off one ingredient of PCTWM to measure its
// contribution (the design choices of paper §5.2):
//
//   - AblateNone: the full algorithm;
//   - AblateHistory: communication sinks read uniformly among all legal
//     candidates instead of the h mo-maximal ones (no Definition-5
//     bounding);
//   - AblateDelay: sampled sinks form their communication relation at
//     their natural scheduling position instead of being delayed to run
//     as late as possible (no priority demotion);
//   - AblateLocalViews: non-sink reads pick uniformly among the legal
//     candidates instead of the thread-local view (scheduling bounded,
//     reads unbounded — the read behaviour of the PCT variant).
type Ablation int

const (
	AblateNone Ablation = iota
	AblateHistory
	AblateDelay
	AblateLocalViews
)

// String names the ablation for reports.
func (a Ablation) String() string {
	switch a {
	case AblateNone:
		return "pctwm"
	case AblateHistory:
		return "pctwm-nohistory"
	case AblateDelay:
		return "pctwm-nodelay"
	case AblateLocalViews:
		return "pctwm-nolocalviews"
	default:
		return "pctwm-unknown"
	}
}

// AblatedPCTWM is PCTWM with one ingredient removed.
type AblatedPCTWM struct {
	PCTWM
	mode Ablation
}

// NewAblatedPCTWM returns PCTWM with the given ablation applied.
func NewAblatedPCTWM(d, h, kcom int, mode Ablation) *AblatedPCTWM {
	return &AblatedPCTWM{PCTWM: *NewPCTWM(d, h, kcom), mode: mode}
}

// Name implements engine.Strategy.
func (s *AblatedPCTWM) Name() string { return s.mode.String() }

// NextThread implements engine.Strategy. With AblateDelay, sampled sinks
// are marked reordered but their threads keep their priority, so the
// communication relation forms at the natural position.
func (s *AblatedPCTWM) NextThread(enabled []engine.PendingOp) memmodel.ThreadID {
	if s.mode != AblateDelay {
		return s.PCTWM.NextThread(enabled)
	}
	op := &enabled[s.highest(enabled)]
	if s.encounter(op) > 0 {
		s.threads[op.TID-1].reorderIdx = op.Index // readGlobal, but no demotion
	}
	return op.TID
}

// PickRead implements engine.Strategy.
func (s *AblatedPCTWM) PickRead(rc engine.ReadContext) int {
	n := len(rc.Candidates)
	switch s.mode {
	case AblateHistory:
		if s.thread(rc.TID).reorderIdx == rc.Index {
			return s.rng.Intn(n) // unbounded history
		}
		return s.PCTWM.PickRead(rc)
	case AblateLocalViews:
		st := s.thread(rc.TID)
		if st.reorderIdx == rc.Index || st.sticky || st.escape {
			return s.PCTWM.PickRead(rc)
		}
		return s.rng.Intn(n) // non-sink reads unrestricted
	default:
		return s.PCTWM.PickRead(rc)
	}
}
