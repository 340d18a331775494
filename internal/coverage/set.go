package coverage

import (
	"encoding/json"
	"slices"

	"pctwm/internal/telemetry"
)

// Entry is one distinct behavior's campaign record.
type Entry struct {
	// FP is the behavior fingerprint (Accumulator.Finalize).
	FP uint64 `json:"fp"`
	// First is the global trial index (0-based, across resumes and
	// workers) of the trial that first exhibited the behavior.
	First int64 `json:"first"`
	// Count is how many trials exhibited the behavior in total.
	Count uint64 `json:"count"`
}

// Set is a campaign's first-seen behavior set. Each worker (and each
// checkpoint chunk) accumulates its own Set; Merge folds them together.
// Because Observe keys novelty by the global trial index and Merge
// resolves duplicates by minimum First, the merged Set is independent
// of worker count, merge grouping and kill/resume boundaries — the
// campaign determinism guarantee extends to coverage.
//
// A Set is not safe for concurrent use; shard per worker and merge.
type Set struct {
	m   map[uint64]Entry
	obs uint64
}

// Observe folds one trial's behavior into the set, reporting whether it
// was novel. trial is the campaign-global trial index.
func (s *Set) Observe(fp uint64, trial int64) (novel bool) {
	if s.m == nil {
		s.m = make(map[uint64]Entry)
	}
	s.obs++
	e, ok := s.m[fp]
	if !ok {
		s.m[fp] = Entry{FP: fp, First: trial, Count: 1}
		return true
	}
	e.Count++
	e.First = min(e.First, trial)
	s.m[fp] = e
	return false
}

// Merge folds o into s. The operation is commutative and associative:
// counts add, and the earliest First wins.
func (s *Set) Merge(o *Set) {
	if o == nil || len(o.m) == 0 {
		s.obs += o.Observations()
		return
	}
	if s.m == nil {
		s.m = make(map[uint64]Entry, len(o.m))
	}
	s.obs += o.obs
	for fp, oe := range o.m {
		e, ok := s.m[fp]
		if !ok {
			s.m[fp] = oe
			continue
		}
		e.Count += oe.Count
		e.First = min(e.First, oe.First)
		s.m[fp] = e
	}
}

// Len returns the number of distinct behaviors seen.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.m)
}

// Observations returns the total number of trials folded in.
func (s *Set) Observations() uint64 {
	if s == nil {
		return 0
	}
	return s.obs
}

// Entries returns the behaviors sorted by fingerprint (the canonical
// serialization order).
func (s *Set) Entries() []Entry {
	if s == nil {
		return nil
	}
	out := make([]Entry, 0, len(s.m))
	for _, e := range s.m {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b Entry) int {
		switch {
		case a.FP < b.FP:
			return -1
		case a.FP > b.FP:
			return 1
		}
		return 0
	})
	return out
}

// Fingerprints returns the sorted distinct fingerprints — the campaign's
// behavior census, directly comparable against the exhaustive explorer's.
func (s *Set) Fingerprints() []uint64 {
	if s == nil {
		return nil
	}
	out := make([]uint64, 0, len(s.m))
	for fp := range s.m {
		out = append(out, fp)
	}
	slices.Sort(out)
	return out
}

// Novelty returns the novelty time series: the sorted global trial
// indices at which a new behavior was first seen (one per behavior).
func (s *Set) Novelty() []int64 {
	if s == nil {
		return nil
	}
	out := make([]int64, 0, len(s.m))
	for _, e := range s.m {
		out = append(out, e.First)
	}
	slices.Sort(out)
	return out
}

// setJSON is the serialized form: the sorted entry list. Observations
// are recovered as the sum of counts.
type setJSON struct {
	Entries []Entry `json:"entries"`
}

// MarshalJSON serializes the set deterministically (entries sorted by
// fingerprint), so checkpoints of equal sets are byte-identical.
func (s *Set) MarshalJSON() ([]byte, error) {
	return json.Marshal(setJSON{Entries: s.Entries()})
}

// UnmarshalJSON restores a set serialized by MarshalJSON.
func (s *Set) UnmarshalJSON(data []byte) error {
	var sj setJSON
	if err := json.Unmarshal(data, &sj); err != nil {
		return err
	}
	s.m = make(map[uint64]Entry, len(sj.Entries))
	s.obs = 0
	for _, e := range sj.Entries {
		s.m[e.FP] = e
		s.obs += e.Count
	}
	return nil
}

// Stats summarizes a campaign's coverage state: how much has been seen,
// how fast novelty is still arriving, and the online estimates of what
// remains unseen.
type Stats struct {
	// Behaviors is the number of distinct behaviors observed.
	Behaviors int
	// Observations is the number of complete trials folded in.
	Observations uint64
	// Singletons (f1) and Doubletons (f2) are the abundance counts the
	// estimators are built from: behaviors seen exactly once / twice.
	Singletons uint64
	Doubletons uint64
	// UnseenMass is the Good–Turing estimate f1/N of the probability
	// that the next trial exhibits a never-seen behavior. 0 when it is
	// exactly zero or no trials have been observed.
	UnseenMass float64
	// Chao1 is the Chao1 lower-bound estimate of the total number of
	// behaviors reachable at the campaign's sampling distribution:
	// S + f1²/(2·f2), or the bias-corrected S + f1(f1-1)/2 when f2 = 0.
	Chao1 float64
	// LastNovel is the global trial index of the most recent first
	// discovery (-1 when nothing was observed). A saturated campaign
	// ran LastNovel+1 trials to full coverage.
	LastNovel int64
	// GapHist is the log2-bucketed histogram of trials between
	// consecutive first discoveries (novelty gaps): mass drifting into
	// high buckets is the visible shape of saturation.
	GapHist telemetry.Hist
}

// Stats computes the campaign summary. It is a pure function of the
// set's contents, so serial and merged-parallel campaigns with equal
// sets report bit-identical statistics.
func (s *Set) Stats() Stats {
	st := Stats{Behaviors: s.Len(), Observations: s.Observations(), LastNovel: -1}
	if s == nil || len(s.m) == 0 {
		return st
	}
	for _, e := range s.m {
		switch e.Count {
		case 1:
			st.Singletons++
		case 2:
			st.Doubletons++
		}
	}
	if st.Observations > 0 {
		st.UnseenMass = float64(st.Singletons) / float64(st.Observations)
	}
	f1, f2 := float64(st.Singletons), float64(st.Doubletons)
	if f2 > 0 {
		st.Chao1 = float64(st.Behaviors) + f1*f1/(2*f2)
	} else {
		st.Chao1 = float64(st.Behaviors) + f1*(f1-1)/2
	}
	novelty := s.Novelty()
	st.LastNovel = novelty[len(novelty)-1]
	for i := 1; i < len(novelty); i++ {
		st.GapHist.Observe(uint64(novelty[i] - novelty[i-1]))
	}
	return st
}

// Equal reports whether two sets contain exactly the same entries
// (fingerprints, first-seen indices and counts) — the bit-identical-merge
// property the determinism tests pin.
func (s *Set) Equal(o *Set) bool {
	if s.Len() != o.Len() || s.Observations() != o.Observations() {
		return false
	}
	if s == nil || s.m == nil {
		return true
	}
	for fp, e := range s.m {
		oe, ok := o.m[fp]
		if !ok || oe != e {
			return false
		}
	}
	return true
}

// SameBehaviors reports whether two sets saw the same distinct
// behaviors, ignoring when and how often — the census-equality check
// against the exhaustive explorer.
func (s *Set) SameBehaviors(o *Set) bool {
	if s.Len() != o.Len() {
		return false
	}
	if s == nil || s.m == nil {
		return true
	}
	for fp := range s.m {
		if _, ok := o.m[fp]; !ok {
			return false
		}
	}
	return true
}
