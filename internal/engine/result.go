package engine

import (
	"context"
	"time"

	"pctwm/internal/memmodel"
	"pctwm/internal/race"
	"pctwm/internal/telemetry"
)

// Recording is the execution graph material captured when Options.Record
// is set: the full event list (po is recoverable from TID+Index, rf from
// ReadsFrom, mo from Stamp) plus the total order of SC events. The axiom
// package turns a Recording into a checkable execution graph.
type Recording struct {
	Events  []memmodel.Event
	SCOrder []memmodel.EventID
	// SpawnLinks order thread starts after their spawn event (From is
	// NoEvent for root threads, which start after initialization).
	SpawnLinks []SpawnLink
	// JoinLinks order a thread's last event before the join that reaped it.
	JoinLinks []JoinLink
	// LocNames maps locations to diagnostic names (static + dynamic).
	// It is read-only: the recorded runs of one Runner that allocate no
	// locations share one map.
	LocNames map[memmodel.Loc]string
}

// SpawnLink records that Child's first event is ordered after event From.
type SpawnLink struct {
	From  memmodel.EventID
	Child memmodel.ThreadID
}

// JoinLink records that event To is ordered after Child's last event.
type JoinLink struct {
	Child memmodel.ThreadID
	To    memmodel.EventID
}

// RunErrorKind classifies the abnormal ways an execution can end.
type RunErrorKind uint8

const (
	// PanicError: a simulated thread's ThreadFunc panicked.
	PanicError RunErrorKind = iota + 1
	// DeadlockError: unfinished threads remained but none was enabled.
	DeadlockError
	// StepLimitError: the execution hit Options.MaxSteps.
	StepLimitError
	// TimeoutError: the execution exceeded Options.MaxWallTime.
	TimeoutError
	// CanceledError: Options.Context was canceled mid-run.
	CanceledError
)

// String names the kind for diagnostics.
func (k RunErrorKind) String() string {
	switch k {
	case PanicError:
		return "panic"
	case DeadlockError:
		return "deadlock"
	case StepLimitError:
		return "step-limit"
	case TimeoutError:
		return "timeout"
	case CanceledError:
		return "canceled"
	}
	return "unknown"
}

// RunError is the structured form of an abnormal execution ending,
// surfaced as Outcome.Err. It complements the BugHit / Deadlocked /
// Aborted booleans with machine-readable details.
type RunError struct {
	Kind RunErrorKind
	// TID is the thread the error is attributed to (the panicking thread
	// for PanicError; 0 when no single thread is responsible).
	TID memmodel.ThreadID
	// Msg is a deterministic human-readable description.
	Msg string
}

func (e *RunError) Error() string { return e.Msg }

// Outcome summarizes one execution.
type Outcome struct {
	// BugHit is true when an assertion failed or a thread crashed.
	BugHit bool
	// BugMessages holds the failed assertion messages / panic values.
	BugMessages []string
	// Err structures the first abnormal-termination cause of the run
	// (thread panic, deadlock, step-limit abort); nil for clean runs and
	// for plain assertion failures, which are reported via BugMessages.
	Err *RunError
	// Races holds detected data races (when race detection is on).
	Races []race.Race
	// Steps counts scheduler grants (including yields).
	Steps int
	// Events counts memory events (R, W, U, F).
	Events int
	// CommEvents counts executed communication events (SC ∪ R ∪ F⊒acq),
	// the paper's k_com.
	CommEvents int
	// Aborted is true when the execution hit MaxSteps (livelock guard).
	Aborted bool
	// Deadlocked is true when unfinished threads remained but none was
	// enabled (a join cycle).
	Deadlocked bool
	// TimedOut is true when the execution exceeded Options.MaxWallTime
	// (Err.Kind is TimeoutError).
	TimedOut bool
	// Canceled is true when Options.Context was canceled mid-run (Err.Kind
	// is CanceledError). The run's threads were unwound cleanly; the
	// Outcome summarizes the partial execution.
	Canceled bool
	// FinalValues maps static location names to their mo-maximal values.
	// Outcomes of the same Runner that ended in the same final state share
	// one interned map; treat it as read-only.
	FinalValues map[string]memmodel.Value
	// BehaviorFP is the run's canonical behavior fingerprint (final
	// values + reads-from pairs + modification orders, see
	// internal/coverage), computed when Options.Coverage is set; 0
	// otherwise. Complete executions with equal fingerprints exhibited
	// the same behavior regardless of schedule.
	BehaviorFP uint64
	// Recording is non-nil when Options.Record was set.
	Recording *Recording
	// Duration is the wall-clock time of the run's execution phase:
	// memory initialization plus the stepping loop, measured around the
	// inline scheduling decisions. Teardown (unwinding parked threads
	// after an aborted run) is excluded, so per-event cost derived from
	// Duration is comparable across scheduler implementations.
	Duration time.Duration
}

// Failed reports whether the execution exposed a bug: an assertion
// failure or thread crash (BugHit), a data race (the C11Tester notion
// used for the application benchmarks), or a structured abnormal ending
// that indicts the program — a panic or a deadlock. Resource aborts
// (step limit, wall-clock timeout, cancellation) are NOT failures: they
// say the run was cut short, not that the program misbehaved; use
// Abnormal (or inspect Err directly) to see those.
//
// Panicking runs set both BugHit and a PanicError, but Failed counts a
// run once — callers tallying Failed alongside per-kind counters (e.g.
// harness.TrialResult.Deadlock) must not sum the two.
func (o *Outcome) Failed() bool {
	if o.BugHit || len(o.Races) > 0 {
		return true
	}
	if o.Err != nil && (o.Err.Kind == PanicError || o.Err.Kind == DeadlockError) {
		return true
	}
	return false
}

// Abnormal reports whether the execution ended abnormally for any reason
// (panic, deadlock, step limit, wall-clock timeout, cancellation).
func (o *Outcome) Abnormal() bool { return o.Err != nil }

// Options configure one execution. The zero value gives the documented
// defaults; Options is JSON-serializable (repro bundles embed it) —
// non-serializable fields carry `json:"-"` and must be re-attached after
// decoding.
type Options struct {
	// Model selects the memory-model backend: "rc11" (default — the
	// paper's C11 view machine), "sc" (sequential consistency, the
	// differential-testing baseline) or "tso" (x86-TSO store buffers).
	// Strategies run unchanged on every model; the backend decides read
	// candidates, synchronization and which operations count as
	// communication events. Race detection (DetectRaces) is defined over
	// the rc11 happens-before and is ignored by the other backends.
	Model string `json:"model,omitempty"`
	// MaxSteps aborts the execution after this many scheduler grants
	// (guards against livelocks the strategy cannot escape). 0 means the
	// default of 100000.
	MaxSteps int
	// MaxWallTime bounds one execution's wall-clock duration. The step
	// loop checks a precomputed deadline every watchdogInterval grants, so
	// a livelocked execution under a buggy strategy is cut off in bounded
	// real time instead of spinning to MaxSteps; the run ends with a
	// TimeoutError and unwinds its threads cleanly. 0 disables the bound.
	// Timeouts are inherently wall-clock-dependent: the same seed may time
	// out at a different step (or not at all) on a re-run.
	MaxWallTime time.Duration
	// Context, when non-nil, cancels in-flight executions: the step loop
	// polls Context.Done() every watchdogInterval grants and ends the run
	// with a CanceledError, releasing coroutines with no goroutine leaks.
	// An un-canceled Context does not perturb schedules or outcomes.
	Context context.Context `json:"-"`
	// SpinThreshold is the number of consecutive identical loads after
	// which the strategy's OnSpin fires. 0 means the default of 12.
	SpinThreshold int
	// StallWindow is the number of scheduler steps without a write, RMW or
	// thread completion after which OnSpin fires regardless of the spin
	// pattern. 0 means the default of 256.
	StallWindow int
	// StopOnBug ends the execution at the first failed assertion.
	StopOnBug bool
	// Record captures the execution graph for consistency checking.
	Record bool
	// DetectRaces enables the vector-clock data race detector.
	DetectRaces bool
	// MaxRaces caps the number of reported races (default 16).
	MaxRaces int
	// Coverage computes a canonical behavior fingerprint per run
	// (Outcome.BehaviorFP) from a per-Runner scratch accumulator. The
	// hook is allocation-free in steady state and costs a few percent of
	// per-event time; when false the hot path pays one nil check. The
	// field is serialized so repro bundles record whether their outcome
	// summaries carry fingerprints.
	Coverage bool `json:"coverage,omitempty"`
	// Telemetry, when non-nil, receives per-execution engine counters (op
	// kind/order matrix, handoffs vs same-thread grants, rf candidate-bag
	// sizes, change-point depths, race checks). The counters use plain
	// field increments — a Runner is single-threaded by contract — so an
	// EngineCounters must not be shared by Runners that run concurrently
	// (campaign workers each get their own shard, merged at the end). A
	// nil Telemetry costs exactly one predictable branch per hook and
	// allocates nothing.
	Telemetry *telemetry.EngineCounters `json:"-"`
}

func (o Options) withDefaults() Options {
	if o.Model == "" {
		o.Model = ModelRC11
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 100000
	}
	if o.SpinThreshold == 0 {
		o.SpinThreshold = 12
	}
	if o.StallWindow == 0 {
		o.StallWindow = 256
	}
	if o.MaxRaces == 0 {
		o.MaxRaces = 16
	}
	return o
}
