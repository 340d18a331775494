package axiom

import (
	"strings"
	"testing"
	"time"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// rec builds a recording by hand. Events must be listed in execution
// order; ids are assigned from position.
func rec(events ...memmodel.Event) *engine.Recording {
	r := &engine.Recording{LocNames: map[memmodel.Loc]string{}}
	for i := range events {
		events[i].ID = memmodel.EventID(i)
	}
	r.Events = events
	for _, ev := range events {
		if ev.Label.Order.IsSC() {
			r.SCOrder = append(r.SCOrder, ev.ID)
		}
	}
	return r
}

func ev(tid memmodel.ThreadID, idx int, lab memmodel.Label, stamp memmodel.TS, rf memmodel.EventID) memmodel.Event {
	return memmodel.Event{TID: tid, Index: idx, Label: lab, Stamp: stamp, ReadsFrom: rf}
}

func w(loc memmodel.Loc, v memmodel.Value, ord memmodel.Order) memmodel.Label {
	return memmodel.Label{Kind: memmodel.KindWrite, Order: ord, Loc: loc, WVal: v}
}

func r(loc memmodel.Loc, v memmodel.Value, ord memmodel.Order) memmodel.Label {
	return memmodel.Label{Kind: memmodel.KindRead, Order: ord, Loc: loc, RVal: v}
}

func u(loc memmodel.Loc, rv, wv memmodel.Value, ord memmodel.Order) memmodel.Label {
	return memmodel.Label{Kind: memmodel.KindRMW, Order: ord, Loc: loc, RVal: rv, WVal: wv}
}

func mustViolate(t *testing.T, recording *engine.Recording, axiom string) {
	t.Helper()
	g, err := FromRecording(recording)
	if err != nil {
		t.Fatalf("building graph: %v", err)
	}
	for _, v := range g.Check() {
		if v.Axiom == axiom {
			return
		}
	}
	t.Fatalf("expected a %s violation, got %v", axiom, g.Check())
}

func mustPass(t *testing.T, recording *engine.Recording) {
	t.Helper()
	g, err := FromRecording(recording)
	if err != nil {
		t.Fatalf("building graph: %v", err)
	}
	if vs := g.Check(); len(vs) > 0 {
		t.Fatalf("expected consistency, got %v", vs)
	}
}

// TestDetectsReadCoherenceViolation: a read observing a value overwritten
// by an hb-earlier write (stale read past the coherence floor).
func TestDetectsReadCoherenceViolation(t *testing.T) {
	const x = memmodel.Loc(1)
	// t1: W x 0 (init, stamp 1); W x 1 (stamp 2); then t1 reads 0 — its own
	// po makes the stamp-2 write hb-before the read: read-coherence broken.
	recording := rec(
		ev(1, 0, w(x, 0, memmodel.Relaxed), 1, memmodel.NoEvent),
		ev(1, 1, w(x, 1, memmodel.Relaxed), 2, memmodel.NoEvent),
		ev(1, 2, r(x, 0, memmodel.Relaxed), 0, 0),
	)
	mustViolate(t, recording, "read-coherence")
}

// TestDetectsWriteCoherenceViolation: a read observing an mo-later write
// while happening-before an mo-earlier one.
func TestDetectsWriteCoherenceViolation(t *testing.T) {
	const x = memmodel.Loc(1)
	// t1: R x (reads stamp-2 write), then t1: W x (stamp 1)?? — the read of
	// the mo-later write happens-before the mo-earlier write.
	recording := rec(
		ev(2, 0, w(x, 5, memmodel.Relaxed), 2, memmodel.NoEvent),
		ev(1, 0, r(x, 5, memmodel.Relaxed), 0, 0),
		ev(1, 1, w(x, 1, memmodel.Relaxed), 1, memmodel.NoEvent),
	)
	mustViolate(t, recording, "write-coherence")
}

// TestDetectsAtomicityViolation: an RMW that skips a write in mo.
func TestDetectsAtomicityViolation(t *testing.T) {
	const x = memmodel.Loc(1)
	recording := rec(
		ev(1, 0, w(x, 0, memmodel.Relaxed), 1, memmodel.NoEvent),
		ev(2, 0, w(x, 7, memmodel.Relaxed), 2, memmodel.NoEvent),
		ev(3, 0, u(x, 0, 1, memmodel.Relaxed), 3, 0), // reads stamp 1, writes stamp 3
	)
	mustViolate(t, recording, "atomicity")
}

// TestDetectsIrrMOSCViolation: SC order contradicting mo.
func TestDetectsIrrMOSCViolation(t *testing.T) {
	const x = memmodel.Loc(1)
	// The stamp-2 write appears earlier in SC order than the stamp-1 write.
	recording := rec(
		ev(1, 0, w(x, 1, memmodel.SeqCst), 2, memmodel.NoEvent),
		ev(2, 0, w(x, 0, memmodel.SeqCst), 1, memmodel.NoEvent),
	)
	mustViolate(t, recording, "irrMOSC")
}

// TestDetectsRFValueMismatch: well-formedness of rf.
func TestDetectsRFValueMismatch(t *testing.T) {
	const x = memmodel.Loc(1)
	recording := rec(
		ev(1, 0, w(x, 3, memmodel.Relaxed), 1, memmodel.NoEvent),
		ev(2, 0, r(x, 4, memmodel.Relaxed), 0, 0),
	)
	mustViolate(t, recording, "wf-rf")
}

// TestDetectsSWThroughRMWChain: the derived sw must chain release writes
// through relaxed RMWs to acquire reads.
func TestDetectsSWThroughRMWChain(t *testing.T) {
	const x = memmodel.Loc(1)
	recording := rec(
		ev(1, 0, w(x, 1, memmodel.Release), 1, memmodel.NoEvent),
		ev(2, 0, u(x, 1, 2, memmodel.Relaxed), 2, 0),
		ev(3, 0, r(x, 2, memmodel.Acquire), 0, 1),
	)
	g, err := FromRecording(recording)
	if err != nil {
		t.Fatal(err)
	}
	mustPass(t, recording)
	if !g.HB(0, 2) {
		t.Fatalf("release write should happen-before acquire read via rf+; sw=%v", g.SW())
	}
	// The relaxed RMW itself must not be an sw source.
	for _, e := range g.SW() {
		if e[0] == 1 {
			t.Fatalf("relaxed RMW recorded as sw source: %v", g.SW())
		}
	}
}

// TestConsistentHandBuiltExecution: a correct MP execution passes.
func TestConsistentHandBuiltExecution(t *testing.T) {
	const x, y = memmodel.Loc(1), memmodel.Loc(2)
	recording := rec(
		ev(1, 0, w(x, 1, memmodel.Relaxed), 1, memmodel.NoEvent),
		ev(1, 1, w(y, 1, memmodel.Release), 1, memmodel.NoEvent),
		ev(2, 0, r(y, 1, memmodel.Acquire), 0, 1),
		ev(2, 1, r(x, 1, memmodel.Relaxed), 0, 0),
	)
	mustPass(t, recording)
}

// TestViolationString covers the diagnostic rendering.
func TestViolationString(t *testing.T) {
	v := Violation{Axiom: "atomicity", Events: []memmodel.EventID{1, 2}, Msg: "oops"}
	if !strings.Contains(v.String(), "atomicity") {
		t.Fatalf("bad violation string: %s", v)
	}
}

// TestFromRecordingMalformed: a recording that names an event it does not
// contain is rejected with an error instead of panicking mid-build.
func TestFromRecordingMalformed(t *testing.T) {
	const x = memmodel.Loc(1)
	withSC := rec(ev(1, 0, w(x, 0, memmodel.SeqCst), 1, memmodel.NoEvent))
	withSC.SCOrder = append(withSC.SCOrder, 3)
	spawn := rec(ev(1, 0, w(x, 0, memmodel.Relaxed), 1, memmodel.NoEvent))
	spawn.SpawnLinks = []engine.SpawnLink{{From: 4, Child: 1}}
	join := rec(ev(1, 0, w(x, 0, memmodel.Relaxed), 1, memmodel.NoEvent))
	join.JoinLinks = []engine.JoinLink{{Child: 1, To: -2}}
	misplaced := rec(ev(1, 0, w(x, 0, memmodel.Relaxed), 1, memmodel.NoEvent))
	misplaced.Events[0].ID = 5
	for _, c := range []struct {
		name string
		rec  *engine.Recording
		want string
	}{
		{"nil", nil, "nil recording"},
		{"rf past the end", rec(
			ev(1, 0, w(x, 0, memmodel.Relaxed), 1, memmodel.NoEvent),
			ev(2, 0, r(x, 0, memmodel.Relaxed), 0, 7),
		), "reads from e7"},
		{"rf negative", rec(ev(2, 0, u(x, 0, 1, memmodel.Relaxed), 1, -3)), "reads from e-3"},
		{"SC order past the end", withSC, "SC order entry 1 is e3"},
		{"spawn from outside", spawn, "follows e4"},
		{"join at outside", join, "at e-2"},
		{"id off its position", misplaced, "event 5 recorded at position 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, err := FromRecording(c.rec)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got graph %v, error %v; want an error containing %q", g != nil, err, c.want)
			}
		})
	}
}

// TestCyclicRMWChainTerminates: RMWs whose rf sources form a cycle are an
// inconsistent execution, not a hang. The rf+ walk stops, and every
// model's checker returns; rc11 reports the backward rf edge.
func TestCyclicRMWChainTerminates(t *testing.T) {
	const x = memmodel.Loc(1)
	for _, c := range []struct {
		name string
		rec  *engine.Recording
	}{
		{"reads itself", rec(ev(1, 0, u(x, 1, 1, memmodel.AcqRel), 1, 0))},
		{"two-cycle", rec(
			ev(1, 0, u(x, 2, 1, memmodel.AcqRel), 1, 1),
			ev(2, 0, u(x, 1, 2, memmodel.AcqRel), 2, 0),
		)},
	} {
		t.Run(c.name, func(t *testing.T) {
			done := make(chan []Violation, 1)
			go func() {
				g, err := FromRecording(c.rec)
				if err != nil {
					t.Errorf("building graph: %v", err)
					done <- nil
					return
				}
				for _, m := range engine.Models() {
					g.CheckModel(m)
				}
				done <- g.Check()
			}()
			select {
			case vs := <-done:
				for _, v := range vs {
					if v.Axiom == "SC" && strings.Contains(v.Msg, "rf edge") {
						return
					}
				}
				t.Fatalf("no backward rf edge reported: %v", vs)
			case <-time.After(2 * time.Second):
				t.Fatal("checking a cyclic rf chain did not return within 2s")
			}
		})
	}
}
