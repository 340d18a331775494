// Package race implements a vector-clock data-race detector in the style
// of FastTrack, specialized to the engine's serialized execution: an access
// races with a prior conflicting access when at least one of the two is
// non-atomic, at least one is a write, and the prior access's epoch is not
// covered by the current thread's happens-before clock.
package race

import (
	"fmt"

	"pctwm/internal/memmodel"
)

// Race describes one detected data race.
type Race struct {
	Loc     memmodel.Loc
	LocName string
	// Prior is the earlier conflicting access; Current is the access that
	// exposed the race.
	Prior   Access
	Current Access
}

// Access identifies one side of a race.
type Access struct {
	TID       memmodel.ThreadID
	Event     memmodel.EventID
	Write     bool
	NonAtomic bool
}

func (r Race) String() string {
	return fmt.Sprintf("data race on %s: %s by t%d (e%d) vs %s by t%d (e%d)",
		r.LocName, accKind(r.Prior), r.Prior.TID, r.Prior.Event,
		accKind(r.Current), r.Current.TID, r.Current.Event)
}

func accKind(a Access) string {
	k := "read"
	if a.Write {
		k = "write"
	}
	if a.NonAtomic {
		return "non-atomic " + k
	}
	return "atomic " + k
}

// epoch is the latest access of one class by one thread at one clock value.
type epoch struct {
	tid       memmodel.ThreadID
	clock     memmodel.TS
	event     memmodel.EventID
	write     bool
	nonAtomic bool
}

// locState keeps, per thread, the latest access of each class as small
// dense slices scanned linearly (executions have tens of threads at most;
// slices beat maps here both on the upsert and the scan, and iterate in a
// deterministic order, so reported races are reproducible across runs).
// Full per-thread state (rather than FastTrack's adaptive epochs) is fine
// at this scale and keeps both racing events reportable. Writes are tracked
// separately per atomicity class: a later atomic write must not mask an
// earlier still-unsynchronized non-atomic write (e.g. plain object
// initialization followed by atomic field updates).
type locState struct {
	naWrites     []epoch
	atomicWrites []epoch
	naReads      []epoch
	atomicReads  []epoch
}

func (s *locState) reset() {
	s.naWrites = s.naWrites[:0]
	s.atomicWrites = s.atomicWrites[:0]
	s.naReads = s.naReads[:0]
	s.atomicReads = s.atomicReads[:0]
}

// upsert replaces the thread's entry in es or appends a new one.
func upsert(es []epoch, e epoch) []epoch {
	for i := range es {
		if es[i].tid == e.tid {
			es[i] = e
			return es
		}
	}
	return append(es, e)
}

// Detector accumulates accesses and reports races. A Detector is reusable:
// Reset clears all access state while retaining the backing storage, so a
// trial loop pays no per-run detector allocations after warmup.
type Detector struct {
	locs     []locState // index = Loc-1
	locName  func(memmodel.Loc) string
	races    []Race
	found    []Race // scratch for OnAccess results
	maxRaces int
}

// NewDetector returns a detector that names locations through locName and
// stops recording after maxRaces races.
func NewDetector(locName func(memmodel.Loc) string, maxRaces int) *Detector {
	if maxRaces <= 0 {
		maxRaces = 16
	}
	return &Detector{locName: locName, maxRaces: maxRaces}
}

// Reset clears all recorded accesses and races for a fresh execution,
// keeping backing storage for reuse. The locName function and race cap are
// retained.
func (d *Detector) Reset() {
	for i := range d.locs {
		d.locs[i].reset()
	}
	d.locs = d.locs[:0]
	d.races = d.races[:0]
}

// Races returns the races detected so far. The slice aliases detector
// state; callers that outlive the next Reset must copy it.
func (d *Detector) Races() []Race { return d.races }

func (d *Detector) state(loc memmodel.Loc) *locState {
	i := int(loc) - 1
	for len(d.locs) <= i {
		if len(d.locs) < cap(d.locs) {
			// Reuse the truncated slot (its inner slices were reset).
			d.locs = d.locs[:len(d.locs)+1]
		} else {
			d.locs = append(d.locs, locState{})
		}
	}
	return &d.locs[i]
}

// check scans prior accesses for conflicts with the current access and
// appends any races to d.found.
func (d *Detector) check(prior []epoch, priorIsWrite bool, loc memmodel.Loc, cur Access, vc memmodel.View) {
	for i := range prior {
		pe := &prior[i]
		if pe.tid == cur.TID {
			continue // same-thread accesses are po-ordered
		}
		// Conflict requires one write and one non-atomic access.
		if !cur.Write && !priorIsWrite {
			continue
		}
		if !cur.NonAtomic && !pe.nonAtomic {
			continue
		}
		if memmodel.HappensBefore(pe.tid, pe.clock, vc) {
			continue
		}
		d.found = append(d.found, Race{
			Loc:     loc,
			LocName: d.locName(loc),
			Prior:   Access{TID: pe.tid, Event: pe.event, Write: priorIsWrite, NonAtomic: pe.nonAtomic},
			Current: cur,
		})
	}
}

// OnAccess records an access and returns any new races it exposes. vc is
// the accessing thread's happens-before clock at the access (its own
// component already ticked for this event). The returned slice is scratch:
// it is only valid until the next OnAccess call.
func (d *Detector) OnAccess(tid memmodel.ThreadID, ev memmodel.EventID, loc memmodel.Loc, write, nonAtomic bool, clock memmodel.TS, vc memmodel.View) []Race {
	s := d.state(loc)
	cur := Access{TID: tid, Event: ev, Write: write, NonAtomic: nonAtomic}
	d.found = d.found[:0]

	// Epoch classes are homogeneous (naWrites/naReads hold only non-atomic
	// epochs, atomicWrites/atomicReads only atomic ones), so classes that
	// cannot satisfy the conflict conditions — one write, one non-atomic —
	// are skipped without scanning. The scan order of the remaining classes
	// is unchanged, so reported races are identical.
	d.check(s.naWrites, true, loc, cur, vc)
	if nonAtomic {
		d.check(s.atomicWrites, true, loc, cur, vc)
	}
	if write {
		d.check(s.naReads, false, loc, cur, vc)
		if nonAtomic {
			d.check(s.atomicReads, false, loc, cur, vc)
		}
	}

	e := epoch{tid: tid, clock: clock, event: ev, write: write, nonAtomic: nonAtomic}
	switch {
	case write && nonAtomic:
		s.naWrites = upsert(s.naWrites, e)
	case write:
		s.atomicWrites = upsert(s.atomicWrites, e)
	case nonAtomic:
		s.naReads = upsert(s.naReads, e)
	default:
		s.atomicReads = upsert(s.atomicReads, e)
	}

	if len(d.found) > 0 && len(d.races) < d.maxRaces {
		room := d.maxRaces - len(d.races)
		if len(d.found) < room {
			room = len(d.found)
		}
		d.races = append(d.races, d.found[:room]...)
	}
	return d.found
}
