package replay

import (
	"reflect"
	"testing"

	"pctwm/internal/benchprog"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// findAndRecord searches for an execution that detect flags, recording
// decisions; it returns the trace of the first failing execution.
func findAndRecord(prog *engine.Program, newStrategy func() engine.Strategy,
	detect func(*engine.Outcome) bool, rounds int, seed int64, opts engine.Options) (*Trace, *engine.Outcome, bool) {
	for i := 0; i < rounds; i++ {
		rec := NewRecorder(newStrategy())
		o := engine.Run(prog, rec, seed+int64(i), opts)
		if detect(o) {
			return rec.Trace(), o, true
		}
	}
	return nil, nil, false
}

// TestRecordAndReplayReproducesBug: find a bug with a random strategy,
// then replay the trace and get the identical outcome with zero derails.
func TestRecordAndReplayReproducesBug(t *testing.T) {
	for _, name := range []string{"dekker", "rwlock", "seqlock"} {
		b, err := benchprog.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog := b.Program(0)
		opts := b.Options()
		trace, found, ok := findAndRecord(prog,
			func() engine.Strategy { return core.NewRandom() },
			b.Detect, 500, 3, opts)
		if !ok {
			t.Fatalf("%s: no failing execution in 500 rounds", name)
		}
		player := NewPlayer(trace)
		replayed := engine.Run(prog, player, 999 /* seed must not matter */, opts)
		if player.Derails != 0 {
			t.Fatalf("%s: replay derailed %d times", name, player.Derails)
		}
		if !b.Detect(replayed) {
			t.Fatalf("%s: replay lost the bug", name)
		}
		if replayed.Events != found.Events || replayed.Steps != found.Steps {
			t.Fatalf("%s: replay diverged: %d/%d events, %d/%d steps",
				name, replayed.Events, found.Events, replayed.Steps, found.Steps)
		}
	}
}

// TestReplayIsStrategyIndependent: a PCTWM-found bug replays without
// PCTWM.
func TestReplayIsStrategyIndependent(t *testing.T) {
	b, err := benchprog.ByName("mpmcqueue")
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Program(0)
	opts := b.Options()
	trace, _, ok := findAndRecord(prog,
		func() engine.Strategy { return core.NewPCTWM(2, 1, 10) },
		b.Detect, 200, 5, opts)
	if !ok {
		t.Fatal("no failing execution")
	}
	o := engine.Run(prog, NewPlayer(trace), 0, opts)
	if !b.Detect(o) {
		t.Fatal("replay lost the PCTWM-found bug")
	}
}

// TestTraceRoundTrip: traces survive a bundle's JSON encoding.
func TestTraceRoundTrip(t *testing.T) {
	b := NewBundle(lostUpdateProgram(), "random", 1, engine.Options{})
	b.Trace = &Trace{Threads: []memmodel.ThreadID{1, 2, 1}, Reads: []int{0, 2, 1}}
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Trace, b.Trace) {
		t.Fatalf("round trip lost data: %+v", back.Trace)
	}
	if _, err := DecodeBundle([]byte("{")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

// TestPlayerFallsBackGracefully: replaying against a different program
// derails but terminates.
func TestPlayerFallsBackGracefully(t *testing.T) {
	b, _ := benchprog.ByName("dekker")
	other, _ := benchprog.ByName("barrier")
	trace, _, ok := findAndRecord(b.Program(0),
		func() engine.Strategy { return core.NewRandom() },
		b.Detect, 300, 1, b.Options())
	if !ok {
		t.Fatal("no failing dekker execution")
	}
	p := NewPlayer(trace)
	o := engine.Run(other.Program(0), p, 0, other.Options())
	if o.Deadlocked {
		t.Fatal("mismatched replay deadlocked")
	}
}
