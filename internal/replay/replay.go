// Package replay records the decisions a testing strategy makes during
// one execution (thread scheduling and reads-from choices) so a failing
// execution can be replayed exactly — deterministic reproduction of a
// randomly found weak-memory bug, independent of the strategy and seed
// that found it.
package replay

import (
	"math/rand"
	"runtime/debug"

	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// Trace is the decision sequence of one execution, as a repro bundle
// stores it (Bundle.Trace).
type Trace struct {
	// Threads is the sequence of scheduled thread ids.
	Threads []memmodel.ThreadID `json:"threads"`
	// Reads is the sequence of reads-from candidate indices.
	Reads []int `json:"reads"`
}

// Recorder wraps a strategy and captures every decision it makes.
type Recorder struct {
	inner engine.Strategy
	trace Trace
	stack string
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

// PanicStack returns the stack of the panic the wrapped strategy raised
// in the current run ("" if none), taken where it was raised: re-raised
// out of a thread's coroutine, the panic has lost the strategy's frames.
func (r *Recorder) PanicStack() string { return r.stack }

// catch, deferred by every callback, records a panic's stack and
// re-raises the same value, so what escapes Run is unchanged.
func (r *Recorder) catch() {
	if v := recover(); v != nil {
		r.stack = string(debug.Stack())
		panic(v)
	}
}

// Name implements engine.Strategy.
func (r *Recorder) Name() string { return r.inner.Name() + "+record" }

// Begin implements engine.Strategy.
func (r *Recorder) Begin(info engine.ProgramInfo, rng *rand.Rand) {
	r.trace, r.stack = Trace{}, ""
	defer r.catch()
	r.inner.Begin(info, rng)
}

// NextThread implements engine.Strategy.
func (r *Recorder) NextThread(enabled []engine.PendingOp) memmodel.ThreadID {
	defer r.catch()
	tid := r.inner.NextThread(enabled)
	r.trace.Threads = append(r.trace.Threads, tid)
	return tid
}

// PickRead implements engine.Strategy.
func (r *Recorder) PickRead(rc engine.ReadContext) int {
	defer r.catch()
	i := r.inner.PickRead(rc)
	r.trace.Reads = append(r.trace.Reads, i)
	return i
}

// OnEvent implements engine.Strategy.
func (r *Recorder) OnEvent(ev *memmodel.Event) { defer r.catch(); r.inner.OnEvent(ev) }

// OnThreadStart implements engine.Strategy.
func (r *Recorder) OnThreadStart(tid, parent memmodel.ThreadID) {
	defer r.catch()
	r.inner.OnThreadStart(tid, parent)
}

// OnSpin implements engine.Strategy.
func (r *Recorder) OnSpin(tid memmodel.ThreadID) { defer r.catch(); r.inner.OnSpin(tid) }

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
