// Package replay records the decisions a testing strategy makes during
// one execution (thread scheduling and reads-from choices) so a failing
// execution can be replayed exactly — deterministic reproduction of a
// randomly found weak-memory bug, independent of the strategy and seed
// that found it.
package replay

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// Trace is the decision sequence of one execution. It is
// JSON-serializable for storing alongside a bug report.
type Trace struct {
	// Threads is the sequence of scheduled thread ids.
	Threads []memmodel.ThreadID `json:"threads"`
	// Reads is the sequence of reads-from candidate indices.
	Reads []int `json:"reads"`
}

// Encode renders the trace as JSON.
func (t *Trace) Encode() ([]byte, error) { return json.Marshal(t) }

// Decode parses a JSON trace.
func Decode(data []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("replay: decoding trace: %w", err)
	}
	return &t, nil
}

// Recorder wraps a strategy and captures every decision it makes.
type Recorder struct {
	inner engine.Strategy
	trace Trace
}

// NewRecorder wraps inner.
func NewRecorder(inner engine.Strategy) *Recorder { return &Recorder{inner: inner} }

// Trace returns a copy of the recorded decisions.
func (r *Recorder) Trace() *Trace {
	return &Trace{
		Threads: append([]memmodel.ThreadID(nil), r.trace.Threads...),
		Reads:   append([]int(nil), r.trace.Reads...),
	}
}

// Name implements engine.Strategy.
func (r *Recorder) Name() string { return r.inner.Name() + "+record" }

// Begin implements engine.Strategy.
func (r *Recorder) Begin(info engine.ProgramInfo, rng *rand.Rand) {
	r.trace = Trace{}
	r.inner.Begin(info, rng)
}

// NextThread implements engine.Strategy.
func (r *Recorder) NextThread(enabled []engine.PendingOp) memmodel.ThreadID {
	tid := r.inner.NextThread(enabled)
	r.trace.Threads = append(r.trace.Threads, tid)
	return tid
}

// PickRead implements engine.Strategy.
func (r *Recorder) PickRead(rc engine.ReadContext) int {
	i := r.inner.PickRead(rc)
	r.trace.Reads = append(r.trace.Reads, i)
	return i
}

// OnEvent implements engine.Strategy.
func (r *Recorder) OnEvent(ev *memmodel.Event) { r.inner.OnEvent(ev) }

// OnThreadStart implements engine.Strategy.
func (r *Recorder) OnThreadStart(tid, parent memmodel.ThreadID) {
	r.inner.OnThreadStart(tid, parent)
}

// OnSpin implements engine.Strategy.
func (r *Recorder) OnSpin(tid memmodel.ThreadID) { r.inner.OnSpin(tid) }

// Player replays a trace. Decisions beyond the trace (which can only
// happen if the program changed) fall back to the first alternative.
type Player struct {
	trace   *Trace
	tPos    int
	rPos    int
	Derails int // decisions that could not follow the trace
}

// NewPlayer builds a strategy replaying the trace.
func NewPlayer(trace *Trace) *Player { return &Player{trace: trace} }

// Name implements engine.Strategy.
func (p *Player) Name() string { return "replay" }

// Begin implements engine.Strategy.
func (p *Player) Begin(engine.ProgramInfo, *rand.Rand) { p.tPos, p.rPos, p.Derails = 0, 0, 0 }

// NextThread implements engine.Strategy.
func (p *Player) NextThread(enabled []engine.PendingOp) memmodel.ThreadID {
	if p.tPos < len(p.trace.Threads) {
		want := p.trace.Threads[p.tPos]
		p.tPos++
		for _, op := range enabled {
			if op.TID == want {
				return want
			}
		}
		p.Derails++
	}
	return enabled[0].TID
}

// PickRead implements engine.Strategy.
func (p *Player) PickRead(rc engine.ReadContext) int {
	if p.rPos < len(p.trace.Reads) {
		i := p.trace.Reads[p.rPos]
		p.rPos++
		if i < len(rc.Candidates) {
			return i
		}
		p.Derails++
	}
	return 0
}

// OnEvent implements engine.Strategy.
func (p *Player) OnEvent(*memmodel.Event) {}

// OnThreadStart implements engine.Strategy.
func (p *Player) OnThreadStart(_, _ memmodel.ThreadID) {}

// OnSpin implements engine.Strategy.
func (p *Player) OnSpin(memmodel.ThreadID) {}
