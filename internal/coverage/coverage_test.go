package coverage

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pctwm/internal/memmodel"
)

// mkWrite builds a write event: id/tid/index identify it, stamp is its
// 1-based mo position at loc.
func mkWrite(id memmodel.EventID, tid memmodel.ThreadID, index int, loc memmodel.Loc, val memmodel.Value, stamp memmodel.TS) *memmodel.Event {
	return &memmodel.Event{
		ID: id, TID: tid, Index: index,
		Label:     memmodel.Label{Kind: memmodel.KindWrite, Loc: loc, WVal: val},
		Stamp:     stamp,
		ReadsFrom: memmodel.NoEvent,
	}
}

// mkRead builds a read event observing the write with event id src.
func mkRead(id memmodel.EventID, tid memmodel.ThreadID, index int, loc memmodel.Loc, src memmodel.EventID) *memmodel.Event {
	return &memmodel.Event{
		ID: id, TID: tid, Index: index,
		Label:     memmodel.Label{Kind: memmodel.KindRead, Loc: loc},
		ReadsFrom: src,
	}
}

// fingerprint runs one synthetic execution through a fresh accumulator.
func fingerprint(model string, staticLocs int, events []*memmodel.Event, finals []memmodel.Value) uint64 {
	var a Accumulator
	a.Reset(model, staticLocs)
	for _, ev := range events {
		a.Observe(ev)
	}
	for _, v := range finals {
		a.PushFinal(v)
	}
	return a.Finalize()
}

// TestFingerprintScheduleInvariant: two interleavings of independent
// threads assign different event ids in different orders but realize the
// same behavior, so they must collide.
func TestFingerprintScheduleInvariant(t *testing.T) {
	// t1: W x=1; t2: W y=1 (locs 0,1; init writes are ids 0,1).
	finals := []memmodel.Value{1, 1}
	a := fingerprint("rc11", 2, []*memmodel.Event{
		mkWrite(2, 1, 0, 0, 1, 2),
		mkWrite(3, 2, 0, 1, 1, 2),
	}, finals)
	b := fingerprint("rc11", 2, []*memmodel.Event{
		mkWrite(2, 2, 0, 1, 1, 2),
		mkWrite(3, 1, 0, 0, 1, 2),
	}, finals)
	if a != b {
		t.Fatalf("interleavings of the same behavior diverge: %#x vs %#x", a, b)
	}
}

// TestFingerprintDistinguishes: changing any behavior component — the
// reads-from source, a final value, a write's mo stamp, or the memory
// model — must change the fingerprint.
func TestFingerprintDistinguishes(t *testing.T) {
	base := func() ([]*memmodel.Event, []memmodel.Value) {
		return []*memmodel.Event{
			mkWrite(2, 1, 0, 0, 1, 2),
			mkRead(3, 2, 0, 0, 2), // reads t1's write
		}, []memmodel.Value{1, 0}
	}
	events, finals := base()
	ref := fingerprint("rc11", 2, events, finals)

	events, finals = base()
	events[1].ReadsFrom = 0 // reads the initialization write instead
	if got := fingerprint("rc11", 2, events, finals); got == ref {
		t.Fatal("rf change did not change the fingerprint")
	}

	events, finals = base()
	finals[1] = 7
	if got := fingerprint("rc11", 2, events, finals); got == ref {
		t.Fatal("final-value change did not change the fingerprint")
	}

	events, finals = base()
	events[0].Stamp = 3 // same write, later in modification order
	if got := fingerprint("rc11", 2, events, finals); got == ref {
		t.Fatal("mo-stamp change did not change the fingerprint")
	}

	events, finals = base()
	if got := fingerprint("tso", 2, events, finals); got == ref {
		t.Fatal("model change did not change the fingerprint")
	}
}

// TestFingerprintRMWContributesBoth: an RMW is both a read and a write;
// its fingerprint must differ from either aspect alone.
func TestFingerprintRMWContributesBoth(t *testing.T) {
	rmw := &memmodel.Event{
		ID: 1, TID: 1, Index: 0,
		Label:     memmodel.Label{Kind: memmodel.KindRMW, Loc: 0, WVal: 1},
		Stamp:     2,
		ReadsFrom: 0,
	}
	full := fingerprint("rc11", 1, []*memmodel.Event{rmw}, []memmodel.Value{1})
	asRead := fingerprint("rc11", 1, []*memmodel.Event{mkRead(1, 1, 0, 0, 0)}, []memmodel.Value{1})
	asWrite := fingerprint("rc11", 1, []*memmodel.Event{mkWrite(1, 1, 0, 0, 1, 2)}, []memmodel.Value{1})
	if full == asRead || full == asWrite {
		t.Fatalf("RMW fingerprint aliases one of its aspects: rmw %#x, read %#x, write %#x", full, asRead, asWrite)
	}
}

// TestAccumulatorReuse: the same accumulator reused across runs (the
// per-Runner pattern) reproduces a fresh accumulator's fingerprints, and
// the steady state allocates nothing.
func TestAccumulatorReuse(t *testing.T) {
	events := []*memmodel.Event{
		mkWrite(2, 1, 0, 0, 1, 2),
		mkRead(3, 2, 0, 0, 2),
	}
	finals := []memmodel.Value{1, 0}
	want := fingerprint("rc11", 2, events, finals)

	var a Accumulator
	run := func() uint64 {
		a.Reset("rc11", 2)
		for _, ev := range events {
			a.Observe(ev)
		}
		for _, v := range finals {
			a.PushFinal(v)
		}
		return a.Finalize()
	}
	for i := 0; i < 5; i++ {
		run() // warm the scratch
	}
	if got := run(); got != want {
		t.Fatalf("reused accumulator diverges: %#x vs %#x", got, want)
	}
	if allocs := testing.AllocsPerRun(200, func() { run() }); allocs > 0 {
		t.Fatalf("steady-state accumulator allocates %.1f per run, want 0", allocs)
	}
}

// observation is one trial's coverage record, for driving Set tests.
type observation struct {
	fp    uint64
	trial int64
}

func foldSerial(obs []observation) *Set {
	var s Set
	for _, o := range obs {
		s.Observe(o.fp, o.trial)
	}
	return &s
}

// TestSetObserveNovelty: Observe reports novelty exactly once per
// fingerprint and keeps the earliest First.
func TestSetObserveNovelty(t *testing.T) {
	var s Set
	if !s.Observe(10, 5) {
		t.Fatal("first observation not novel")
	}
	if s.Observe(10, 9) {
		t.Fatal("repeat observation reported novel")
	}
	if s.Observe(10, 2) {
		t.Fatal("earlier repeat reported novel")
	}
	e := s.Entries()[0]
	if e.First != 2 || e.Count != 3 {
		t.Fatalf("entry after out-of-order observations: %+v", e)
	}
	if s.Observations() != 3 || s.Len() != 1 {
		t.Fatalf("obs %d len %d", s.Observations(), s.Len())
	}
}

// TestSetMergeDeterministic: any sharding of an observation stream, and
// any merge order over the shards, produces a Set bit-identical to the
// serial fold — the property that makes parallel coverage campaigns
// worker-count-independent.
func TestSetMergeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var obs []observation
	for trial := int64(0); trial < 500; trial++ {
		obs = append(obs, observation{
			fp:    uint64(rng.Intn(40)) + 1,
			trial: trial,
		})
	}
	want := foldSerial(obs)

	for _, shards := range []int{1, 2, 3, 8} {
		parts := make([]*Set, shards)
		for i := range parts {
			parts[i] = new(Set)
		}
		// Round-robin sharding mimics the pooled runner's seed striping.
		for i, o := range obs {
			parts[i%shards].Observe(o.fp, o.trial)
		}
		// Merge in a shuffled order: Merge must be order-independent.
		order := rng.Perm(shards)
		var got Set
		for _, i := range order {
			got.Merge(parts[i])
		}
		if !got.Equal(want) {
			t.Fatalf("shards=%d merge order %v diverges from serial fold", shards, order)
		}
		if !reflect.DeepEqual(got.Stats(), want.Stats()) {
			t.Fatalf("shards=%d stats diverge:\n got %+v\nwant %+v", shards, got.Stats(), want.Stats())
		}
	}
}

// TestSetMergeEmpty: merging empty or entry-less sets only transfers the
// observation count.
func TestSetMergeEmpty(t *testing.T) {
	var a, b Set
	a.Observe(1, 0)
	a.Merge(&b)
	if a.Len() != 1 || a.Observations() != 1 {
		t.Fatalf("merge of empty set perturbed: len %d obs %d", a.Len(), a.Observations())
	}
	b.Merge(&a)
	if b.Len() != 1 || b.Observations() != 1 {
		t.Fatalf("merge into empty set: len %d obs %d", b.Len(), b.Observations())
	}
}

// TestSetJSONRoundTrip: the checkpoint serialization is deterministic
// and lossless.
func TestSetJSONRoundTrip(t *testing.T) {
	s := foldSerial([]observation{
		{fp: 30, trial: 0},
		{fp: 10, trial: 1},
		{fp: 30, trial: 2},
		{fp: 20, trial: 3},
	})
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	data2, _ := json.Marshal(s)
	if string(data) != string(data2) {
		t.Fatalf("serialization not deterministic:\n%s\n%s", data, data2)
	}
	var back Set
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(s) {
		t.Fatalf("round trip diverges:\n got %+v\nwant %+v", back.Entries(), s.Entries())
	}
	if !reflect.DeepEqual(back.Stats(), s.Stats()) {
		t.Fatalf("round-tripped stats diverge")
	}
}

// TestSetStats pins the estimators on a hand-computed example.
func TestSetStats(t *testing.T) {
	// 6 trials: fp 1 at trials 0,2,5 (count 3); fp 2 at trials 1,4
	// (count 2, doubleton); fp 3 at trial 3 (count 1, singleton).
	s := foldSerial([]observation{
		{fp: 1, trial: 0},
		{fp: 2, trial: 1},
		{fp: 1, trial: 2},
		{fp: 3, trial: 3},
		{fp: 2, trial: 4},
		{fp: 1, trial: 5},
	})
	st := s.Stats()
	if st.Behaviors != 3 || st.Observations != 6 {
		t.Fatalf("behaviors %d obs %d", st.Behaviors, st.Observations)
	}
	if st.Singletons != 1 || st.Doubletons != 1 {
		t.Fatalf("f1 %d f2 %d", st.Singletons, st.Doubletons)
	}
	if want := 1.0 / 6.0; st.UnseenMass != want {
		t.Fatalf("unseen mass %v want %v", st.UnseenMass, want)
	}
	// Chao1 = S + f1²/(2·f2) = 3 + 1/2.
	if want := 3.5; st.Chao1 != want {
		t.Fatalf("chao1 %v want %v", st.Chao1, want)
	}
	if st.LastNovel != 3 {
		t.Fatalf("last novel %d want 3", st.LastNovel)
	}
	// Novelty at trials 0,1,3 → gaps 1,2.
	if got := st.GapHist.Count; got != 2 {
		t.Fatalf("gap observations %d want 2", got)
	}
}

// TestSetStatsChao1NoDoubletons covers the bias-corrected fallback.
func TestSetStatsChao1NoDoubletons(t *testing.T) {
	s := foldSerial([]observation{
		{fp: 1, trial: 0}, {fp: 2, trial: 1}, {fp: 3, trial: 2},
	})
	st := s.Stats()
	// f1 = 3, f2 = 0 → Chao1 = 3 + 3·2/2 = 6.
	if st.Chao1 != 6 {
		t.Fatalf("chao1 %v want 6", st.Chao1)
	}
}

// TestSetEqualAndSameBehaviors separates the exact-entry comparison
// (Equal) from the fingerprint-set-only one (Fingerprints, as the
// census check compares them).
func TestSetEqualAndSameBehaviors(t *testing.T) {
	a := foldSerial([]observation{{fp: 1, trial: 0}, {fp: 2, trial: 1}})
	b := foldSerial([]observation{{fp: 1, trial: 0}, {fp: 2, trial: 1}})
	if !a.Equal(b) || !slices.Equal(a.Fingerprints(), b.Fingerprints()) {
		t.Fatal("identical folds not equal")
	}
	// Same behaviors, different counts.
	b.Observe(2, 5)
	if a.Equal(b) {
		t.Fatal("Equal ignores counts")
	}
	if !slices.Equal(a.Fingerprints(), b.Fingerprints()) {
		t.Fatal("fingerprints should ignore counts")
	}
	// Different behaviors.
	c := foldSerial([]observation{{fp: 1, trial: 0}, {fp: 3, trial: 1}})
	if slices.Equal(a.Fingerprints(), c.Fingerprints()) {
		t.Fatal("fingerprints missed a difference")
	}
}

// TestSetNilAndEmpty: nil and empty sets answer every query safely.
func TestSetNilAndEmpty(t *testing.T) {
	var nilSet *Set
	if nilSet.Len() != 0 || nilSet.Observations() != 0 {
		t.Fatal("nil set not empty")
	}
	if got := nilSet.Stats(); got.Behaviors != 0 || got.LastNovel != -1 {
		t.Fatalf("nil stats %+v", got)
	}
	if nilSet.Fingerprints() != nil || nilSet.Novelty() != nil || nilSet.Entries() != nil {
		t.Fatal("nil set yields non-nil slices")
	}
	var empty Set
	if st := empty.Stats(); st.Behaviors != 0 || st.LastNovel != -1 {
		t.Fatalf("empty stats %+v", st)
	}
}
