package engine

import (
	"fmt"

	"pctwm/internal/memmodel"
)

// Memory-model backend names (Options.Model / -engine.model).
const (
	// ModelRC11 is the default: the paper's C11 view machine (Algorithm 2)
	// with message bags, release sequences and SC views.
	ModelRC11 = "rc11"
	// ModelSC is sequential consistency: a single memory copy, reads
	// observe only the mo-maximal write. Useful as a differential-testing
	// baseline and as the interleaving-only overhead floor.
	ModelSC = "sc"
	// ModelTSO is x86-TSO (Owens, Sarkar, Sewell 2009): per-thread FIFO
	// store buffers with mandatory store forwarding; RMWs and SC accesses
	// drain the issuing thread's buffer.
	ModelTSO = "tso"
)

// Models lists the supported memory-model backend names.
func Models() []string { return []string{ModelRC11, ModelSC, ModelTSO} }

// ValidModel reports whether name selects a supported backend ("" selects
// the default, rc11). Cmds validate flags with this before NewRunner,
// which panics on an unknown model.
func ValidModel(name string) bool {
	switch name {
	case "", ModelRC11, ModelSC, ModelTSO:
		return true
	}
	return false
}

// modelBackend is the memory-model semantics of the engine: everything
// that decides which writes a read may observe, what state a write
// publishes, and what synchronizes. The engine keeps the model-agnostic
// machinery — scheduling, threads, the per-location modification order
// (locs/mo, shared bookkeeping for every model), allocation, static
// initialization, events, recording, telemetry — and delegates the
// semantics of each memory operation to the active backend. Strategies
// stay model-agnostic: they see the same NextThread/PickRead protocol for
// every backend, with the backend deciding the read-candidate sets and
// which pending operations count as communication sinks.
//
// Backends are engine-internal: each holds a pointer to its Engine and is
// serialized by the scheduler baton like all engine state.
type modelBackend interface {
	// resetRun clears per-run model state (called from Engine.reset,
	// before initMemory).
	resetRun()

	// initStatic attaches model state to the static locations' init
	// messages right after the engine cold-builds them (one per declared
	// location, stamp 1). The result is cached across runs by
	// Engine.initWarm; per-run state belongs in resetRun.
	initStatic()

	// Memory operations. Each implements the full semantics of one
	// granted request — candidate computation, strategy consultation
	// (Engine.pickRead), view/buffer updates — and emits its event(s)
	// through Engine.beginEvent/finishEvent.
	execRead(t *Thread, l memmodel.Loc, ord memmodel.Order, casFail bool, expected memmodel.Value) memmodel.Value
	execWrite(t *Thread, l memmodel.Loc, v memmodel.Value, ord memmodel.Order)
	execRMW(t *Thread, l memmodel.Loc, ord memmodel.Order, f func(memmodel.Value) memmodel.Value) memmodel.Value
	execCAS(t *Thread, req *request) (memmodel.Value, bool)

	// onFence applies a fence's semantics inside its event (the engine
	// has checked that ord is acquire or release).
	onFence(t *Thread, ord memmodel.Order)

	// onAlloc attaches model state to m, the initializing write of
	// freshly allocated location l, inside its event; clock is the
	// event's tick of t's clock.
	onAlloc(t *Thread, l memmodel.Loc, m *message, clock memmodel.TS)

	// postEvent runs inside finishEvent, before counting and recording
	// (rc11 extends the global SC view here).
	postEvent(t *Thread, ev *memmodel.Event)

	// onSpawn runs when t spawns a child, before the child starts (TSO
	// drains the parent's store buffer so the child observes its
	// initialization writes).
	onSpawn(t *Thread)

	// onThreadFinish runs when t's ThreadFunc returns or panics (TSO
	// drains the finished thread's store buffer). Threads unwound by an
	// early teardown do not finish and keep their state.
	onThreadFinish(t *Thread)

	// commSink classifies an operation as a communication sink (the
	// paper's isCommunicationEvent, Algorithm 1): pending operations for
	// the strategies, executed events for the k_com counter
	// (Outcome.CommEvents). Under rc11, SC ∪ R ∪ F⊒acq; under sc/tso,
	// reads and RMWs.
	commSink(kind memmodel.Kind, ord memmodel.Order) bool

	// finalValue returns the value FinalValues reports for static
	// location index i (rc11/sc: mo-maximal; tso: the write currently in
	// shared memory — undrained buffered stores are not final state).
	finalValue(i int, loc *location) memmodel.Value
}

// newBackend builds the backend for a validated model name.
func newBackend(e *Engine, model string) modelBackend {
	switch model {
	case ModelRC11:
		return &rc11Backend{e: e}
	case ModelSC:
		return &scBackend{e: e}
	case ModelTSO:
		return &tsoBackend{e: e}
	}
	panic(fmt.Sprintf("pctwm: unknown memory model %q (supported: rc11, sc, tso)", model))
}
