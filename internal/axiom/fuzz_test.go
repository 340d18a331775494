package axiom

import (
	"cmp"
	"io"
	"math/rand"
	"slices"
	"testing"

	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/litmus"
	"pctwm/internal/memmodel"
)

// fuzzEventBytes is how many input bytes encode one event, and
// fuzzLinkBytes how many encode one trailing SC order entry or link.
const (
	fuzzEventBytes = 8
	fuzzLinkBytes  = 3
	fuzzMaxEvents  = 16
	fuzzMaxLinks   = 8
)

// decodeRecording turns fuzz input into a recording of up to 16 events.
// Each event takes 8 bytes: kind, order, thread, po index, location,
// stamp, rf source and the read and written values (a signed nibble
// each), with the signed fields free to name negative or out-of-range
// ids. Every SC-ordered event joins
// the SC order. Up to 8 byte triples after the events each add an SC
// order entry, a spawn link or a join link naming any event and thread.
func decodeRecording(data []byte) *engine.Recording {
	n := min(len(data)/fuzzEventBytes, fuzzMaxEvents)
	rec := &engine.Recording{}
	for i := 0; i < n; i++ {
		b := data[i*fuzzEventBytes:]
		ev := memmodel.Event{
			ID:    memmodel.EventID(i),
			TID:   memmodel.ThreadID(int8(b[2])),
			Index: int(int8(b[3])),
			Label: memmodel.Label{
				Kind:  memmodel.Kind(b[0] % uint8(memmodel.KindAssert+1)),
				Order: memmodel.Order(b[1] % uint8(memmodel.SeqCst+1)),
				Loc:   memmodel.Loc(int8(b[4])),
				RVal:  memmodel.Value(int8(b[7]<<4) >> 4),
				WVal:  memmodel.Value(int8(b[7]) >> 4),
			},
			Stamp:     memmodel.TS(int8(b[5])),
			ReadsFrom: memmodel.EventID(int8(b[6])),
		}
		rec.Events = append(rec.Events, ev)
		if ev.Label.Order.IsSC() {
			rec.SCOrder = append(rec.SCOrder, ev.ID)
		}
	}
	rest := data[n*fuzzEventBytes:]
	for i := 0; i+fuzzLinkBytes <= len(rest) && i < fuzzMaxLinks*fuzzLinkBytes; i += fuzzLinkBytes {
		a, b := int8(rest[i+1]), int8(rest[i+2])
		switch rest[i] % 3 {
		case 0:
			rec.SCOrder = append(rec.SCOrder, memmodel.EventID(a))
		case 1:
			rec.SpawnLinks = append(rec.SpawnLinks, engine.SpawnLink{From: memmodel.EventID(a), Child: memmodel.ThreadID(b)})
		case 2:
			rec.JoinLinks = append(rec.JoinLinks, engine.JoinLink{Child: memmodel.ThreadID(a), To: memmodel.EventID(b)})
		}
	}
	return rec
}

// encodeRecording is decodeRecording's inverse for the recordings it can
// express: at most 16 events with int8 ids and values in -8..7, and at most
// 8 spawn and join links. The SC order is not encoded; decoding rebuilds
// it from the SC-ordered events.
func encodeRecording(rec *engine.Recording) ([]byte, bool) {
	if len(rec.Events) > fuzzMaxEvents || len(rec.SpawnLinks)+len(rec.JoinLinks) > fuzzMaxLinks {
		return nil, false
	}
	byte8 := func(v int) (byte, bool) { return byte(int8(v)), v >= -128 && v <= 127 }
	var data []byte
	for _, ev := range rec.Events {
		l := ev.Label
		if l.RVal < -8 || l.RVal > 7 || l.WVal < -8 || l.WVal > 7 {
			return nil, false
		}
		b := []byte{byte(l.Kind), byte(l.Order), 0, 0, 0, 0, 0, byte(l.RVal)&15 | byte(l.WVal)<<4}
		for i, v := range []int{int(ev.TID), ev.Index, int(l.Loc), int(ev.Stamp), int(ev.ReadsFrom)} {
			var ok bool
			if b[2+i], ok = byte8(v); !ok {
				return nil, false
			}
		}
		data = append(data, b...)
	}
	for _, s := range rec.SpawnLinks {
		from, ok1 := byte8(int(s.From))
		child, ok2 := byte8(int(s.Child))
		if !ok1 || !ok2 {
			return nil, false
		}
		data = append(data, 1, from, child)
	}
	for _, j := range rec.JoinLinks {
		child, ok1 := byte8(int(j.Child))
		to, ok2 := byte8(int(j.To))
		if !ok1 || !ok2 {
			return nil, false
		}
		data = append(data, 2, child, to)
	}
	return data, true
}

// fuzzSeeds records the litmus suite under every model and mutates each
// recording as the golden test does, keeping the recordings the fuzz
// encoding can express.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	for _, model := range engine.Models() {
		for _, lt := range litmus.Suite() {
			r := engine.NewRunner(lt.Program, engine.Options{Model: model, Record: true})
			strat := core.NewRandom()
			for seed := int64(0); seed < 2; seed++ {
				rec := r.Run(strat, seed).Recording
				recs := []*engine.Recording{rec}
				rng := rand.New(rand.NewSource(seed))
				for k := 0; k < 2; k++ {
					m, _ := mutate(rec, rng)
					recs = append(recs, m)
				}
				for _, x := range recs {
					if data, ok := encodeRecording(x); ok {
						seeds = append(seeds, data)
					}
				}
			}
			r.Close()
		}
	}
	return seeds
}

// FuzzFromRecording: any recording either builds a graph or is rejected
// with an error, every model's checker and both renderings return on a
// graph that builds, and the graph agrees with the naive oracle of
// checkOracle. The seed corpus holds recordings of the litmus suite under
// every model and their mutants, so go test runs the oracle on them.
func FuzzFromRecording(f *testing.F) {
	// A read whose rf source lies past the end of a two-event recording.
	f.Add([]byte{
		byte(memmodel.KindWrite), byte(memmodel.Relaxed), 1, 0, 1, 1, 0xff, 0,
		byte(memmodel.KindRead), byte(memmodel.Relaxed), 2, 0, 1, 0, 7, 0,
	})
	// An acq-rel RMW reading from itself.
	f.Add([]byte{byte(memmodel.KindRMW), byte(memmodel.AcqRel), 1, 0, 1, 1, 0, 0x10})
	for _, data := range fuzzSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := decodeRecording(data)
		g, err := FromRecording(rec)
		if err != nil {
			return
		}
		for _, m := range engine.Models() {
			g.CheckModel(m)
		}
		if err := g.WriteText(io.Discard, nil); err != nil {
			t.Fatal(err)
		}
		if err := g.WriteDot(io.Discard, nil); err != nil {
			t.Fatal(err)
		}
		checkOracle(t, rec, g)
	})
}

// checkOracle compares g with relations recomputed naively from rec:
//   - HB against breadth-first reachability over the forward po, spawn,
//     join and sw edges, with sw taken from the RC20 definition;
//   - SW, as a set, against those sw edges;
//   - MO against a comparison sort of the writes by (Loc, Stamp, ID);
//   - Check's coherence violations, as a multiset, against the pairwise
//     loop over mo, rf and HB that referenceCoherence keeps.
func checkOracle(t *testing.T, rec *engine.Recording, g *Graph) {
	t.Helper()
	evs := rec.Events
	n := len(evs)
	id := func(i int) memmodel.EventID { return memmodel.EventID(i) }

	// po: each thread's events sorted by (Index, ID).
	po := map[memmodel.ThreadID][]memmodel.EventID{}
	for i := range evs {
		po[evs[i].TID] = append(po[evs[i].TID], id(i))
	}
	for _, ids := range po {
		slices.SortFunc(ids, func(a, b memmodel.EventID) int {
			return cmp.Or(cmp.Compare(evs[a].Index, evs[b].Index), cmp.Compare(a, b))
		})
	}

	// sw ≜ [E⊒rel]; ([F];po)?; rf+; (po;[F])?; [E⊒acq], where rf+ runs
	// from a read to its source and on through RMWs to theirs.
	fenceOf := func(e memmodel.Event, ord func(memmodel.Order) bool) bool {
		return e.Label.Kind == memmodel.KindFence && ord(e.Label.Order)
	}
	sw := map[[2]memmodel.EventID]bool{}
	for _, r := range evs {
		if !r.Label.Kind.Reads() || r.ReadsFrom == memmodel.NoEvent {
			continue
		}
		var sinks []memmodel.EventID
		if r.Label.Order.IsAcquire() {
			sinks = append(sinks, r.ID)
		}
		for _, f := range evs {
			if f.TID == r.TID && f.Index > r.Index && fenceOf(f, memmodel.Order.IsAcquire) {
				sinks = append(sinks, f.ID)
			}
		}
		seen := map[memmodel.EventID]bool{}
		for w := r.ReadsFrom; !seen[w]; w = evs[w].ReadsFrom {
			seen[w] = true
			we := evs[w]
			var srcs []memmodel.EventID
			if we.Label.Order.IsRelease() {
				srcs = append(srcs, w)
			}
			for _, f := range evs {
				if f.TID == we.TID && f.Index < we.Index && fenceOf(f, memmodel.Order.IsRelease) {
					srcs = append(srcs, f.ID)
				}
			}
			for _, s := range srcs {
				for _, d := range sinks {
					sw[[2]memmodel.EventID{s, d}] = true
				}
			}
			if we.Label.Kind != memmodel.KindRMW || we.ReadsFrom == memmodel.NoEvent {
				break
			}
		}
	}
	got := map[[2]memmodel.EventID]bool{}
	for _, e := range g.SW() {
		if got[e] {
			t.Errorf("sw edge %v listed twice", e)
		}
		got[e] = true
	}
	for e := range sw {
		if !got[e] {
			t.Errorf("sw edge %v missing from SW() = %v", e, g.SW())
		}
	}
	for e := range got {
		if !sw[e] {
			t.Errorf("SW() lists %v, which is not an sw edge", e)
		}
	}

	// hb: reachability over the forward edges.
	succ := make([][]memmodel.EventID, n)
	edge := func(from, to memmodel.EventID) {
		if from != memmodel.NoEvent && from < to {
			succ[from] = append(succ[from], to)
		}
	}
	for _, ids := range po {
		for i := 1; i < len(ids); i++ {
			edge(ids[i-1], ids[i])
		}
	}
	for _, s := range rec.SpawnLinks {
		if ids := po[s.Child]; len(ids) > 0 {
			edge(s.From, ids[0])
		}
	}
	for _, j := range rec.JoinLinks {
		if ids := po[j.Child]; len(ids) > 0 {
			edge(ids[len(ids)-1], j.To)
		}
	}
	for e := range sw {
		edge(e[0], e[1])
	}
	for a := 0; a < n; a++ {
		reach := make([]bool, n)
		queue := slices.Clone(succ[a])
		for len(queue) > 0 {
			b := queue[0]
			queue = queue[1:]
			if !reach[b] {
				reach[b] = true
				queue = append(queue, succ[b]...)
			}
		}
		for b := 0; b < n; b++ {
			if g.HB(id(a), id(b)) != reach[b] {
				t.Errorf("HB(e%d, e%d) = %v, reachability says %v", a, b, !reach[b], reach[b])
			}
		}
	}

	// mo: the writes of each location sorted by (Loc, Stamp, ID).
	var writes []memmodel.EventID
	locs := map[memmodel.Loc]bool{}
	for i := range evs {
		locs[evs[i].Label.Loc] = true
		if evs[i].Label.Kind.Writes() {
			writes = append(writes, id(i))
		}
	}
	slices.SortFunc(writes, func(a, b memmodel.EventID) int {
		ea, eb := &evs[a], &evs[b]
		return cmp.Or(cmp.Compare(ea.Label.Loc, eb.Label.Loc), cmp.Compare(ea.Stamp, eb.Stamp), cmp.Compare(a, b))
	})
	for loc := range locs {
		want := slices.DeleteFunc(slices.Clone(writes), func(w memmodel.EventID) bool { return evs[w].Label.Loc != loc })
		if got := g.MO(loc); !slices.Equal(got, want) {
			t.Errorf("MO(%d) = %v, want %v", loc, got, want)
		}
	}

	// coherence: Check against the pairwise loop.
	var gotCo []string
	for _, v := range g.Check() {
		if v.Axiom == "write-coherence" || v.Axiom == "read-coherence" {
			gotCo = append(gotCo, v.String())
		}
	}
	var wantCo []string
	for _, v := range referenceCoherence(g, writes) {
		wantCo = append(wantCo, v.String())
	}
	slices.Sort(gotCo)
	slices.Sort(wantCo)
	if !slices.Equal(gotCo, wantCo) {
		t.Errorf("coherence violations differ from the pairwise loop:\ngot  %q\nwant %q", gotCo, wantCo)
	}
}

// referenceCoherence is the pairwise sc-per-location check, one HB test
// per pair of same-location writes and per (write, reader) pair:
//
//	mo; rf?; hb? irreflexive   (write-coherence)
//	fr; rf?; hb  irreflexive   (read-coherence)
//
// writes lists every write sorted by (Loc, Stamp, ID).
func referenceCoherence(g *Graph, writes []memmodel.EventID) []Violation {
	readersOf := func(w memmodel.EventID) []memmodel.EventID {
		var rs []memmodel.EventID
		for _, ev := range g.Events {
			if ev.Label.Kind.Reads() && ev.ReadsFrom == w {
				rs = append(rs, ev.ID)
			}
		}
		return rs
	}
	var vs []Violation
	var locs []memmodel.Loc
	for _, w := range writes {
		if loc := g.Events[w].Label.Loc; len(locs) == 0 || locs[len(locs)-1] != loc {
			locs = append(locs, loc)
		}
	}
	for _, loc := range locs {
		ids := g.MO(loc)
		for i, w1 := range ids {
			for _, w2 := range ids[i+1:] {
				if g.HB(w2, w1) {
					vs = append(vs, g.violation("write-coherence", "mo(%s,%s) but the later write happens-before the earlier", w1, w2))
				}
				for _, r := range readersOf(w2) {
					if r == w1 || g.HB(r, w1) {
						vs = append(vs, g.violation("write-coherence", "%s reads from mo-later %s but happens-before it", r, w2))
					}
				}
			}
		}
	}
	for _, ev := range g.Events {
		if !ev.Label.Kind.Reads() || ev.ReadsFrom == memmodel.NoEvent {
			continue
		}
		r, w := ev.ID, g.Events[ev.ReadsFrom]
		ids := g.MO(ev.Label.Loc)
		first := slices.IndexFunc(ids, func(id memmodel.EventID) bool { return g.Events[id].Stamp > w.Stamp })
		if first < 0 {
			continue
		}
		for _, wp := range ids[first:] {
			if g.HB(wp, r) {
				vs = append(vs, g.violation("read-coherence", "%s reads from %s overwritten by hb-earlier %s", r, w.ID, wp))
			}
			for _, r2 := range readersOf(wp) {
				if r2 != r && g.HB(r2, r) {
					vs = append(vs, g.violation("read-coherence", "%s reads stale value although hb-earlier %s saw a newer one", r, r2))
				}
			}
		}
	}
	return vs
}

// TestEncodeRecording: the fuzz encoding round-trips the recordings it
// can express, and the seed corpus holds recordings of every model.
func TestEncodeRecording(t *testing.T) {
	lt := litmus.MPFences()
	for _, model := range engine.Models() {
		rec := engine.Run(lt.Program, core.NewRandom(), 1, engine.Options{Model: model, Record: true}).Recording
		data, ok := encodeRecording(rec)
		if !ok {
			t.Fatalf("%s: %s recording of %d events does not encode", lt.Name, model, len(rec.Events))
		}
		got := decodeRecording(data)
		if !slices.Equal(got.Events, rec.Events) || !slices.Equal(got.SCOrder, rec.SCOrder) ||
			!slices.Equal(got.SpawnLinks, rec.SpawnLinks) || !slices.Equal(got.JoinLinks, rec.JoinLinks) {
			t.Errorf("%s: recording decodes to %+v, want %+v", model, *got, *rec)
		}
	}
	if n := len(fuzzSeeds()); n < 100 {
		t.Errorf("only %d litmus recordings and mutants encode as fuzz seeds", n)
	}
}
