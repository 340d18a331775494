package memmodel

// TS is a per-location modification-order timestamp. Writes to one
// location receive increasing timestamps 1, 2, 3, … in mo order; 0 means
// "before every write", i.e. the location is unknown to the view.
type TS int32

// View maps locations to the mo-maximal write timestamp observed for each
// location (Definition 1). A view is the operational representation of the
// paper's view(x) = maximal_mo(E_x): since mo is totally ordered per
// location and timestamps follow mo, one timestamp per location suffices.
//
// Views are stored densely: entry i holds the timestamp of Loc(i+1).
// Locations are small integers handed out contiguously by the engine, so a
// dense slice makes Join/Clone straight memory sweeps instead of map
// operations — the view machine of Algorithm 2 clones a view per write
// event, which made map-backed views the engine's dominant allocation.
//
// The zero value is the empty view (only initialization writes, which have
// timestamp 1 once a location exists; a missing entry means "no opinion",
// i.e. floor 0).
//
// The same dense vector, joined by the same pointwise max, is also the
// engine's happens-before clock: entry i then holds thread i's logical
// time (Tick, HappensBefore) instead of Loc(i+1)'s timestamp.
type View struct {
	ts []TS // ts[i]: Loc(i+1)'s timestamp (in a clock, thread i's time); trailing zeros implied
}

// at returns entry i (0 beyond the stored prefix).
func (v View) at(i int) TS {
	if i >= 0 && i < len(v.ts) {
		return v.ts[i]
	}
	return 0
}

// Get returns the timestamp the view holds for loc (0 if none).
func (v View) Get(loc Loc) TS { return v.at(int(loc) - 1) }

// grow extends the dense storage to cover n locations, zeroing any slack
// reclaimed from a previous larger use of the backing array.
func (v *View) grow(n int) {
	if n <= len(v.ts) {
		return
	}
	if n <= cap(v.ts) {
		old := len(v.ts)
		v.ts = v.ts[:n]
		for i := old; i < n; i++ {
			v.ts[i] = 0
		}
		return
	}
	nt := make([]TS, n)
	copy(nt, v.ts)
	v.ts = nt
}

// Set records timestamp t for loc if it advances the view. It implements
// the single-location case of ⊔mo: view(x) ← max(view(x), t).
func (v *View) Set(loc Loc, t TS) {
	i := int(loc) - 1
	if i < 0 {
		return
	}
	if i < len(v.ts) {
		if t > v.ts[i] {
			v.ts[i] = t
		}
		return
	}
	if t == 0 {
		return
	}
	v.grow(i + 1)
	v.ts[i] = t
}

// Join merges other into v on all locations (Definition 1: combining views
// on all memory locations, ⊔mo(view1, view2)).
func (v *View) Join(other View) {
	if len(other.ts) == 0 {
		return
	}
	v.grow(len(other.ts))
	for i, t := range other.ts {
		if t > v.ts[i] {
			v.ts[i] = t
		}
	}
}

// Tick advances thread t's component of a clock and returns its new value.
func (v *View) Tick(t ThreadID) TS {
	v.grow(int(t) + 1)
	v.ts[t]++
	return v.ts[t]
}

// HappensBefore reports whether the epoch (t, n) — event n of thread t —
// is ordered before the point described by clock.
func HappensBefore(t ThreadID, n TS, clock View) bool {
	return n <= clock.at(int(t))
}

// CopyFrom makes v an exact copy of other, reusing v's backing array when
// it is large enough. It is the in-place counterpart of ViewArena.Clone
// for long-lived views (thread views, fence snapshots) that are
// overwritten many times per execution.
func (v *View) CopyFrom(other View) {
	n := len(other.ts)
	if cap(v.ts) < n {
		v.ts = make([]TS, n)
	} else {
		v.ts = v.ts[:n]
	}
	copy(v.ts, other.ts)
}

// Reset empties the view, keeping the backing array for reuse.
func (v *View) Reset() {
	v.ts = v.ts[:0]
}

// ViewArena recycles view and clock backing arrays through a plain
// freelist. The engine clones a view ("bag") and a clock per write event;
// with an arena, a steady-state execution loop reuses the arrays released
// by the previous run instead of growing the heap — see Runner in
// internal/engine.
//
// The freelist is deliberately not synchronized: each engine owns its
// arenas and their accesses are serialized by the scheduler baton. (An earlier
// sync.Pool-backed version allocated a slice-header box on every Release,
// which dominated the steady-state allocation profile.) The zero value is
// ready to use.
type ViewArena struct {
	free [][]TS
	// max is the rounded-up high-water capacity requested from this arena.
	// Every fresh allocation uses max, so once the largest view size of the
	// program has been seen, recycled arrays fit all later requests and the
	// freelist stops dropping undersized arrays (which previously caused a
	// steady trickle of allocations when small and large clones interleave).
	max int
}

// get returns a zero-length slice with capacity ≥ n, preferring recycled
// arrays. Fresh arrays are allocated at the arena's high-water capacity, so
// the freelist converges on arrays that fit every view of the program after
// a short warmup.
func (a *ViewArena) get(n int) []TS {
	if n > a.max {
		c := 8
		for c < n {
			c *= 2
		}
		a.max = c
	}
	for l := len(a.free); l > 0; l-- {
		s := a.free[l-1]
		a.free[l-1] = nil
		a.free = a.free[:l-1]
		if cap(s) >= n {
			return s
		}
	}
	c := a.max
	if c < 8 {
		c = 8
	}
	return make([]TS, 0, c)
}

// Clone returns an independent copy of v backed by a recycled array. The
// result always owns an arena array — even when v is empty — so a clone
// that is grown afterwards (bag.Set, Join) and later Released returns
// arena storage to the freelist. (An earlier version returned the zero
// View for empty sources; such clones grew plain make()d arrays that were
// then Released without ever having been taken from the arena, so the
// freelist gained one array per relaxed write and grew without bound.)
func (a *ViewArena) Clone(v View) View {
	n := len(v.ts)
	ts := a.get(n)[:n]
	copy(ts, v.ts)
	return View{ts: ts}
}

// New returns a zeroed view covering n locations, backed by a recycled
// array.
func (a *ViewArena) New(n int) View {
	ts := a.get(n)[:n]
	for i := range ts {
		ts[i] = 0
	}
	return View{ts: ts}
}

// Release returns v's backing array to the arena and empties v. Only the
// owner of the view's backing array (the holder of the last clone) may
// release it; released views must not be read again.
func (a *ViewArena) Release(v *View) {
	if cap(v.ts) > 0 {
		a.free = append(a.free, v.ts[:0])
	}
	v.ts = nil
}
