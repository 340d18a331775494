package replay

import (
	"encoding/json"
	"testing"

	"pctwm/internal/benchprog"
	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// FuzzDecode: arbitrary bytes never crash the decoding of a trace, and
// every trace that decodes can drive a replay to completion.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(`{"threads":[1,2,1],"reads":[0,1]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"threads":null,"reads":[99999]}`))
	f.Add([]byte(`not json`))

	b, err := benchprog.ByName("dekker")
	if err != nil {
		f.Fatal(err)
	}
	prog := b.Program(0)
	opts := b.Options()
	opts.MaxSteps = 2000

	f.Fuzz(func(t *testing.T, data []byte) {
		var trace Trace
		if json.Unmarshal(data, &trace) != nil {
			return
		}
		p := NewPlayer(&trace)
		o := engine.Run(prog, p, 0, opts)
		if o.Deadlocked {
			t.Fatalf("replay of fuzzed trace deadlocked: %q", data)
		}
	})
}

// FuzzPlayerRobustness: random thread/read sequences always terminate.
func FuzzPlayerRobustness(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(0))
	b, err := benchprog.ByName("mpmcqueue")
	if err != nil {
		f.Fatal(err)
	}
	prog := b.Program(0)
	opts := b.Options()
	opts.MaxSteps = 2000

	f.Fuzz(func(t *testing.T, a, bb, c uint8) {
		trace := &Trace{
			Threads: []memmodel.ThreadID{memmodel.ThreadID(a%4 + 1), memmodel.ThreadID(bb%4 + 1)},
			Reads:   []int{int(c % 8), int(a % 3)},
		}
		o := engine.Run(prog, NewPlayer(trace), 0, opts)
		if o.Deadlocked {
			t.Fatal("fuzzed replay deadlocked")
		}
	})
}
