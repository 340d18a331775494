package memmodel

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOrderPredicates(t *testing.T) {
	cases := []struct {
		o                    Order
		atomic, acq, rel, sc bool
	}{
		{NonAtomic, false, false, false, false},
		{Relaxed, true, false, false, false},
		{Acquire, true, true, false, false},
		{Release, true, false, true, false},
		{AcqRel, true, true, true, false},
		{SeqCst, true, true, true, true},
	}
	for _, c := range cases {
		if c.o.IsAtomic() != c.atomic || c.o.IsAcquire() != c.acq ||
			c.o.IsRelease() != c.rel || c.o.IsSC() != c.sc {
			t.Errorf("%s: predicates (%v,%v,%v,%v), want (%v,%v,%v,%v)",
				c.o, c.o.IsAtomic(), c.o.IsAcquire(), c.o.IsRelease(), c.o.IsSC(),
				c.atomic, c.acq, c.rel, c.sc)
		}
		if !c.o.Valid() {
			t.Errorf("%s not valid", c.o)
		}
	}
	if Order(200).Valid() {
		t.Error("garbage order reported valid")
	}
}

func TestOrderStrings(t *testing.T) {
	want := map[Order]string{
		NonAtomic: "na", Relaxed: "rlx", Acquire: "acq",
		Release: "rel", AcqRel: "acq-rel", SeqCst: "sc",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), s)
		}
	}
}

func TestKindPredicates(t *testing.T) {
	if !KindRead.Reads() || !KindRMW.Reads() || KindWrite.Reads() {
		t.Error("Reads predicate wrong")
	}
	if !KindWrite.Writes() || !KindRMW.Writes() || KindRead.Writes() {
		t.Error("Writes predicate wrong")
	}
	for _, k := range []Kind{KindRead, KindWrite, KindRMW} {
		if !k.IsMemoryAccess() {
			t.Errorf("%s should be a memory access", k)
		}
	}
	for _, k := range []Kind{KindFence, KindSpawn, KindJoin, KindAssert} {
		if k.IsMemoryAccess() {
			t.Errorf("%s should not be a memory access", k)
		}
	}
}

// TestCommunicationEvents pins Definition 3: sinks are reads, RMWs and
// acquire-or-SC fences; plain stores (even SC ones) and release fences
// are sources, not sinks.
func TestCommunicationEvents(t *testing.T) {
	sink := func(k Kind, o Order) bool { return Label{Kind: k, Order: o}.IsCommunicationEvent() }
	src := func(k Kind, o Order) bool { return Label{Kind: k, Order: o}.IsCommunicationSource() }

	if !sink(KindRead, Relaxed) || !sink(KindRMW, Relaxed) || !sink(KindFence, Acquire) || !sink(KindFence, SeqCst) {
		t.Error("missing communication sinks")
	}
	if sink(KindWrite, SeqCst) || sink(KindWrite, Release) || sink(KindFence, Release) || sink(KindSpawn, Relaxed) {
		t.Error("spurious communication sinks")
	}
	if !src(KindWrite, Relaxed) || !src(KindRMW, Relaxed) || !src(KindFence, Release) || !src(KindRead, SeqCst) {
		t.Error("missing communication sources")
	}
	if src(KindRead, Relaxed) || src(KindFence, Acquire) {
		t.Error("spurious communication sources")
	}
}

func TestLabelString(t *testing.T) {
	l := Label{Kind: KindRMW, Order: AcqRel, Loc: 3, RVal: 1, WVal: 2}
	if s := l.String(); !strings.Contains(s, "U") || !strings.Contains(s, "acq-rel") {
		t.Errorf("label string %q", s)
	}
	e := Event{ID: 5, TID: 2, Index: 1, Label: l}
	if s := e.String(); !strings.Contains(s, "e5") || !strings.Contains(s, "t2") {
		t.Errorf("event string %q", s)
	}
}

func TestViewBasics(t *testing.T) {
	var v View
	if v.Get(1) != 0 {
		t.Fatal("zero view not empty")
	}
	v.Set(1, 5)
	v.Set(1, 3) // must not regress
	if v.Get(1) != 5 {
		t.Fatalf("Get(1) = %d, want 5", v.Get(1))
	}
	v.Set(2, 1)
	var c View
	c.CopyFrom(v)
	c.Set(1, 9)
	if v.Get(1) != 5 || c.Get(2) != 1 {
		t.Fatal("CopyFrom aliases the original")
	}
	c.Reset()
	if c.Get(1) != 0 || c.Get(2) != 0 {
		t.Fatal("Reset left entries behind")
	}
}

// TestClockBasics checks a View used as a happens-before clock: entry i
// is thread i's logical time, advanced by Tick.
func TestClockBasics(t *testing.T) {
	var clock View
	if clock.at(3) != 0 {
		t.Fatal("zero clock not empty")
	}
	if n := clock.Tick(2); n != 1 {
		t.Fatalf("Tick = %d, want 1", n)
	}
	clock.Tick(0)
	if clock.Tick(0) != 2 || clock.at(2) != 1 || clock.at(1) != 0 {
		t.Fatal("Tick components wrong")
	}
	var c View
	c.CopyFrom(clock)
	c.Tick(0)
	if clock.at(0) != 2 {
		t.Fatal("CopyFrom aliases the original clock")
	}
}

func TestHappensBefore(t *testing.T) {
	var clock View
	for i := 0; i < 7; i++ {
		clock.Tick(2)
	}
	if !HappensBefore(2, 7, clock) || !HappensBefore(2, 3, clock) {
		t.Fatal("covered epoch should happen-before")
	}
	if HappensBefore(2, 8, clock) || HappensBefore(1, 1, clock) || HappensBefore(5, 1, clock) {
		t.Fatal("uncovered epoch should not happen-before")
	}
}

// randomView builds a view from fuzz input.
func randomView(r *rand.Rand) View {
	var v View
	n := r.Intn(6)
	for i := 0; i < n; i++ {
		v.Set(Loc(1+r.Intn(5)), TS(1+r.Intn(20)))
	}
	return v
}

// clone returns an independent copy of v.
func clone(v View) View {
	var c View
	c.CopyFrom(v)
	return c
}

// leq reports a ⊑ b pointwise over the locations randomView and the
// lattice test use.
func leq(a, b View) bool {
	for l := Loc(1); l <= 6; l++ {
		if a.Get(l) > b.Get(l) {
			return false
		}
	}
	return true
}

func equal(a, b View) bool { return leq(a, b) && leq(b, a) }

// TestViewJoinLattice checks the join-semilattice laws of ⊔mo with
// property-based testing: commutativity, associativity, idempotence, and
// that join is the least upper bound.
func TestViewJoinLattice(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomView(r), randomView(r), randomView(r)

		ab := clone(a)
		ab.Join(b)
		ba := clone(b)
		ba.Join(a)
		if !equal(ab, ba) {
			t.Log("join not commutative")
			return false
		}

		abc1 := clone(ab)
		abc1.Join(c)
		bc := clone(b)
		bc.Join(c)
		abc2 := clone(a)
		abc2.Join(bc)
		if !equal(abc1, abc2) {
			t.Log("join not associative")
			return false
		}

		aa := clone(a)
		aa.Join(a)
		if !equal(aa, a) {
			t.Log("join not idempotent")
			return false
		}

		if !leq(a, ab) || !leq(b, ab) {
			t.Log("join not an upper bound")
			return false
		}
		// Least: any upper bound u of a and b dominates a⊔b.
		u := clone(ab)
		u.Set(5, 99)
		if !leq(ab, u) {
			t.Log("join not least")
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomClock builds a clock over threads 0..3 from fuzz input.
func randomClock(r *rand.Rand) View {
	var v View
	for i, n := 0, r.Intn(8); i < n; i++ {
		v.Tick(ThreadID(r.Intn(4)))
	}
	return v
}

// clockLeq reports a ⊑ b pointwise over the threads randomClock uses.
func clockLeq(a, b View) bool {
	for i := 0; i < 4; i++ {
		if a.at(i) > b.at(i) {
			return false
		}
	}
	return true
}

// TestClockJoinLattice checks the semilattice laws of Join on clocks:
// commutativity, associativity, idempotence, and that a⊔b bounds a and b.
func TestClockJoinLattice(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomClock(r), randomClock(r), randomClock(r)

		ab := clone(a)
		ab.Join(b)
		ba := clone(b)
		ba.Join(a)
		if !clockLeq(ab, ba) || !clockLeq(ba, ab) {
			return false // commutativity
		}
		abc1 := clone(ab)
		abc1.Join(c)
		bc := clone(b)
		bc.Join(c)
		abc2 := clone(a)
		abc2.Join(bc)
		if !clockLeq(abc1, abc2) || !clockLeq(abc2, abc1) {
			return false // associativity
		}
		aa := clone(a)
		aa.Join(a)
		return clockLeq(aa, a) && clockLeq(a, aa) && clockLeq(a, ab) && clockLeq(b, ab)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTickMonotone: ticking strictly increases the own component and
// leaves the others alone.
func TestTickMonotone(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomView(r)
		i := ThreadID(r.Intn(4))
		before := clone(v)
		v.Tick(i)
		for j := ThreadID(0); j < 6; j++ {
			want := before.at(int(j))
			if j == i {
				want++
			}
			if v.at(int(j)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestArenaSteadyState pins the arena's recorded regressions: once warm,
// Clone/New/Release cycles allocate nothing and leave the freelist no
// longer than the warm-up did. Each cycle clones an empty vector and grows
// it before release (clones of empty sources once grew plain arrays, so
// the freelist gained one per cycle), and alternates large and small
// sizes with the small arrays released last, so the next cycle's large
// requests meet them first (arrays sized to their first request were once
// dropped there and replaced on every cycle).
func TestArenaSteadyState(t *testing.T) {
	var a ViewArena
	var small, large View
	small.Set(3, 1)
	large.Set(200, 7)
	cycle := func() {
		l1 := a.Clone(large)
		s1 := a.Clone(small)
		l2 := a.New(150)
		e := a.Clone(View{})
		e.Set(40, 2)
		s2 := a.New(2)
		a.Release(&l1)
		a.Release(&l2)
		a.Release(&e)
		a.Release(&s1)
		a.Release(&s2)
	}
	cycle()
	warm := len(a.free)
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm arena cycle allocates %.1f times, want 0", allocs)
	}
	if len(a.free) > warm {
		t.Fatalf("freelist grew from %d to %d arrays", warm, len(a.free))
	}
}

// TestArenaClonesAreIndependent: clones and New views own their arrays,
// and a released array comes back zeroed by New.
func TestArenaClonesAreIndependent(t *testing.T) {
	var a ViewArena
	var v View
	v.Set(2, 4)
	c := a.Clone(v)
	c.Set(2, 9)
	c.Set(7, 1)
	if v.Get(2) != 4 || v.Get(7) != 0 || c.Get(2) != 9 {
		t.Fatal("Clone aliases its source")
	}
	a.Release(&c)
	n := a.New(8)
	for l := Loc(1); l <= 8; l++ {
		if n.Get(l) != 0 {
			t.Fatalf("New(8) holds %d at %d", n.Get(l), l)
		}
	}
}
