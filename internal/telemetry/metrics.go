package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// AtomicHist is the thread-safe counterpart of Hist, used for quantities
// observed once per trial from many campaign workers. Bucketing is
// identical to Hist (log2, HistBuckets buckets), so snapshots of an
// AtomicHist and plain Hists merge and render the same way.
type AtomicHist struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [HistBuckets]atomic.Uint64
}

// Observe records one value.
func (h *AtomicHist) Observe(v uint64) {
	h.buckets[histBucket(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot copies the histogram into a plain Hist. The snapshot is not
// atomic across fields (counters move while it is taken), which is fine
// for monitoring output; campaign-final numbers are read after all
// workers have exited.
func (h *AtomicHist) Snapshot() Hist {
	var out Hist
	out.Count = h.count.Load()
	out.Sum = h.sum.Load()
	out.Max = h.max.Load()
	for i := range out.Buckets {
		out.Buckets[i] = h.buckets[i].Load()
	}
	return out
}

// TrialObs is the per-trial observation fed into Metrics.ObserveTrial by
// campaign workers. Flags mirror the harness outcome taxonomy.
type TrialObs struct {
	// Duration is the engine-measured wall time of the trial.
	Duration time.Duration
	// Events is the number of scheduled events the trial executed.
	Events int
	// Hit marks a failed (bug-hitting) outcome: assertion violation,
	// detected race, or structured panic/deadlock error.
	Hit bool
	// Quarantined marks a trial whose panic escaped the engine (a strategy
	// or engine bug): the worker replaced its strategy.
	Quarantined bool
	// TimedOut marks a per-trial wall-clock watchdog expiry.
	TimedOut bool
	// Canceled marks a trial cut short by campaign cancellation.
	Canceled bool
	// Deadlocked marks a reported deadlock outcome (subset of Hit).
	Deadlocked bool
	// BehaviorFP is the trial's canonical behavior fingerprint (computed
	// by internal/coverage when engine Options.Coverage is on).
	// Meaningful only when HasBehavior is set.
	BehaviorFP uint64
	// HasBehavior marks a complete execution with a valid BehaviorFP:
	// coverage was enabled and the run finished without an engine error
	// (timeouts, step-limit aborts and cancellations carry no behavior).
	HasBehavior bool
}

// Metrics is the campaign-level metrics hub shared by all workers of one
// process. All fields are updated with atomics (or under mu for the
// merged engine counters), and every update happens at most once per
// trial or campaign phase — never on the engine's per-event hot path.
//
// The zero value is ready to use. One Metrics is typically created per
// process, passed to every Campaign, and served over HTTP via Handler.
type Metrics struct {
	startNs atomic.Int64 // process-relative epoch for rate/ETA computation

	expected atomic.Uint64 // trials planned across announced campaigns
	trials   atomic.Uint64 // trials completed
	hits     atomic.Uint64 // failed (bug-hitting) trials
	events   atomic.Uint64 // events executed (sum over trials)

	deadlocks   atomic.Uint64
	quarantines atomic.Uint64
	timeouts    atomic.Uint64
	cancels     atomic.Uint64
	interrupts  atomic.Uint64 // campaigns cut short by context cancellation
	stuck       atomic.Uint64 // stuck-worker watchdog firings

	reproDeterministic    atomic.Uint64
	reproNondeterministic atomic.Uint64
	reproSkipped          atomic.Uint64

	checkpointWrites   atomic.Uint64 // committed checkpoint generations
	checkpointRetries  atomic.Uint64 // durable-write retries after transient errors
	checkpointCorrupt  atomic.Uint64 // loads that recovered past a corrupt generation
	checkpointDegraded atomic.Uint64 // campaigns that gave up on durable writes

	workers atomic.Int64  // workers currently running trials
	busyNs  atomic.Uint64 // cumulative worker busy time (trial durations)

	trialNs    AtomicHist // per-trial wall time, ns
	nsPerEvent AtomicHist // per-trial ns/event (integer division)

	phase atomic.Value // string: current campaign phase / section label

	mu     sync.Mutex
	engine EngineCounters // merged per-worker engine counters

	// covSeen/covObs are the live behavior-coverage view: observation
	// counts per fingerprint across all trials observed by this hub, and
	// the total number of behavior-carrying trials. Updated once per
	// trial under mu (the map write is far cheaper than the trial that
	// produced it); the campaign-final deterministic set lives in
	// coverage.Set — this map only feeds monitoring output (the
	// Prometheus gauges and the progress line).
	covSeen map[uint64]uint64
	covObs  uint64
}

// touchStart records the first observation time; all rate and ETA
// computations are relative to it.
func (m *Metrics) touchStart() {
	if m.startNs.Load() == 0 {
		m.startNs.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// SetPhase labels the current campaign phase (a report section, a bench
// program name); the progress reporter and the metrics snapshot show it.
func (m *Metrics) SetPhase(name string) {
	m.touchStart()
	m.phase.Store(name)
}

// Phase returns the current phase label ("" before the first SetPhase).
func (m *Metrics) Phase() string {
	if v, ok := m.phase.Load().(string); ok {
		return v
	}
	return ""
}

// AddExpected announces n upcoming trials, which drives the progress
// reporter's ETA.
func (m *Metrics) AddExpected(n int) {
	m.touchStart()
	if n > 0 {
		m.expected.Add(uint64(n))
	}
}

// WorkerStarted / WorkerDone bracket a campaign worker's lifetime and
// feed the worker-utilization gauge.
func (m *Metrics) WorkerStarted() { m.touchStart(); m.workers.Add(1) }
func (m *Metrics) WorkerDone()    { m.workers.Add(-1) }

// ObserveTrial records one finished trial. Called once per trial by the
// owning worker; the cost (a dozen atomic adds) is invisible next to the
// thousands of events the trial executed.
func (m *Metrics) ObserveTrial(o TrialObs) {
	m.touchStart()
	m.trials.Add(1)
	if o.Hit {
		m.hits.Add(1)
	}
	if o.Deadlocked {
		m.deadlocks.Add(1)
	}
	if o.Quarantined {
		m.quarantines.Add(1)
	}
	if o.TimedOut {
		m.timeouts.Add(1)
	}
	if o.Canceled {
		m.cancels.Add(1)
	}
	if o.Events > 0 {
		m.events.Add(uint64(o.Events))
	}
	if o.Duration > 0 {
		ns := uint64(o.Duration.Nanoseconds())
		m.busyNs.Add(ns)
		m.trialNs.Observe(ns)
		if o.Events > 0 {
			m.nsPerEvent.Observe(ns / uint64(o.Events))
		}
	}
	if o.HasBehavior {
		m.mu.Lock()
		if m.covSeen == nil {
			m.covSeen = make(map[uint64]uint64)
		}
		m.covSeen[o.BehaviorFP]++
		m.covObs++
		m.mu.Unlock()
	}
}

// Coverage returns the live behavior-coverage counters: distinct
// behaviors seen, behavior-carrying trials observed, and behaviors seen
// exactly once (the Good–Turing f1). All zero when coverage is off.
func (m *Metrics) Coverage() (behaviors, observations, singletons uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, n := range m.covSeen {
		if n == 1 {
			singletons++
		}
	}
	return uint64(len(m.covSeen)), m.covObs, singletons
}

// UnseenMass is the Good–Turing estimate of the probability mass of
// never-seen behaviors — the chance the next trial shows something new,
// f1/N. Zero-guarded (0 for an empty campaign, never NaN).
func UnseenMass(singletons, observations uint64) float64 {
	if observations == 0 {
		return 0
	}
	return float64(singletons) / float64(observations)
}

// CampaignInterrupted counts a campaign cut short by context
// cancellation (SIGINT/SIGTERM or a stuck-watchdog cancel).
func (m *Metrics) CampaignInterrupted() { m.interrupts.Add(1) }

// WorkerStuck counts a stuck-worker watchdog firing.
func (m *Metrics) WorkerStuck() { m.stuck.Add(1) }

// ReproTriaged counts one repro bundle by its triage verdict
// ("DETERMINISTIC", "NONDETERMINISTIC", anything else = skipped).
func (m *Metrics) ReproTriaged(verdict string) {
	switch verdict {
	case "DETERMINISTIC":
		m.reproDeterministic.Add(1)
	case "NONDETERMINISTIC":
		m.reproNondeterministic.Add(1)
	default:
		m.reproSkipped.Add(1)
	}
}

// CheckpointWritten, CheckpointRetried, CheckpointCorruptRecovered and
// CheckpointDegraded are the durable-sink observations (the
// checkpoint.Observer surface — kept signature-compatible without
// importing the checkpoint package): committed generations, transient
// write retries, loads that fell back past a corrupt generation, and
// campaigns that stopped writing durably after the directory became
// unwritable.
func (m *Metrics) CheckpointWritten()          { m.checkpointWrites.Add(1) }
func (m *Metrics) CheckpointRetried()          { m.checkpointRetries.Add(1) }
func (m *Metrics) CheckpointCorruptRecovered() { m.checkpointCorrupt.Add(1) }
func (m *Metrics) CheckpointDegraded()         { m.checkpointDegraded.Add(1) }

// MergeEngine folds a worker's EngineCounters into the campaign-wide
// merged totals. Called at trial-batch boundaries, never on the hot
// path. Merging is commutative, so totals are independent of worker
// interleaving.
func (m *Metrics) MergeEngine(c *EngineCounters) {
	if c == nil {
		return
	}
	m.mu.Lock()
	m.engine.Merge(c)
	m.mu.Unlock()
}

// Engine returns a copy of the merged engine counters (built by Merge
// alone, so without a change-point log).
func (m *Metrics) Engine() EngineCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.engine
}

// Snapshot is the JSON-facing (and expvar-facing) digest of a Metrics.
// All derived ratios are zero-guarded so the struct always encodes.
type Snapshot struct {
	Phase        string  `json:"phase,omitempty"`
	UptimeSec    float64 `json:"uptime_sec"`
	Expected     uint64  `json:"expected"`
	Trials       uint64  `json:"trials"`
	Hits         uint64  `json:"hits"`
	Events       uint64  `json:"events"`
	Deadlocks    uint64  `json:"deadlocks"`
	Quarantines  uint64  `json:"quarantines"`
	Timeouts     uint64  `json:"timeouts"`
	Cancels      uint64  `json:"cancels"`
	Interrupts   uint64  `json:"interrupts"`
	Stuck        uint64  `json:"stuck"`
	ReproDet     uint64  `json:"repro_deterministic"`
	ReproNondet  uint64  `json:"repro_nondeterministic"`
	ReproSkipped uint64  `json:"repro_skipped"`

	CheckpointWrites   uint64 `json:"checkpoint_writes"`
	CheckpointRetries  uint64 `json:"checkpoint_retries"`
	CheckpointCorrupt  uint64 `json:"checkpoint_corrupt_recoveries"`
	CheckpointDegraded uint64 `json:"checkpoint_degraded"`

	Workers           int64   `json:"workers"`
	WorkerUtilization float64 `json:"worker_utilization"`
	TrialsPerSec      float64 `json:"trials_per_sec"`

	TrialNs    HistSummary `json:"trial_ns"`
	NsPerEvent HistSummary `json:"ns_per_event"`

	// Behavior coverage (zero when no campaign ran with coverage on):
	// distinct behaviors, behavior-carrying trials, and the Good–Turing
	// unseen-mass estimate f1/N.
	CoverageBehaviors    uint64  `json:"coverage_behaviors,omitempty"`
	CoverageObservations uint64  `json:"coverage_observations,omitempty"`
	CoverageUnseenMass   float64 `json:"coverage_unseen_mass,omitempty"`

	Engine EngineSummary `json:"engine"`
}

// uptime returns the wall time since the first observation (0 before).
func (m *Metrics) uptime(now time.Time) time.Duration {
	start := m.startNs.Load()
	if start == 0 {
		return 0
	}
	d := now.UnixNano() - start
	if d < 0 {
		return 0
	}
	return time.Duration(d)
}

// TrialsPerSec returns the campaign-wide completion rate, zero-guarded
// (0 for an empty or zero-duration campaign — never NaN/Inf).
func (m *Metrics) TrialsPerSec() float64 {
	return rate(m.trials.Load(), m.uptime(time.Now()))
}

// rate is the shared zero-guarded n/duration helper.
func rate(n uint64, d time.Duration) float64 {
	if n == 0 || d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// Trials returns the number of completed trials.
func (m *Metrics) Trials() uint64 { return m.trials.Load() }

// SnapshotAt digests the metrics at time now (pass time.Now()).
func (m *Metrics) SnapshotAt(now time.Time) Snapshot {
	up := m.uptime(now)
	trials := m.trials.Load()
	workers := m.workers.Load()

	// Utilization: fraction of worker-seconds spent inside trials. With
	// no workers currently registered (between campaigns) fall back to a
	// single-lane denominator so the number stays meaningful, and clamp
	// to [0,1] against clock skew.
	util := 0.0
	if up > 0 {
		lanes := workers
		if lanes <= 0 {
			lanes = 1
		}
		util = float64(m.busyNs.Load()) / (float64(lanes) * float64(up.Nanoseconds()))
		if util > 1 {
			util = 1
		}
	}

	eng := m.Engine()
	trialNs := m.trialNs.Snapshot()
	nsPerEvent := m.nsPerEvent.Snapshot()
	behaviors, covObs, singletons := m.Coverage()
	return Snapshot{
		Phase:        m.Phase(),
		UptimeSec:    up.Seconds(),
		Expected:     m.expected.Load(),
		Trials:       trials,
		Hits:         m.hits.Load(),
		Events:       m.events.Load(),
		Deadlocks:    m.deadlocks.Load(),
		Quarantines:  m.quarantines.Load(),
		Timeouts:     m.timeouts.Load(),
		Cancels:      m.cancels.Load(),
		Interrupts:   m.interrupts.Load(),
		Stuck:        m.stuck.Load(),
		ReproDet:     m.reproDeterministic.Load(),
		ReproNondet:  m.reproNondeterministic.Load(),
		ReproSkipped: m.reproSkipped.Load(),

		CheckpointWrites:   m.checkpointWrites.Load(),
		CheckpointRetries:  m.checkpointRetries.Load(),
		CheckpointCorrupt:  m.checkpointCorrupt.Load(),
		CheckpointDegraded: m.checkpointDegraded.Load(),

		Workers:           workers,
		WorkerUtilization: util,
		TrialsPerSec:      rate(trials, up),

		TrialNs:    trialNs.Summary(),
		NsPerEvent: nsPerEvent.Summary(),

		CoverageBehaviors:    behaviors,
		CoverageObservations: covObs,
		CoverageUnseenMass:   UnseenMass(singletons, covObs),

		Engine: eng.Summary(),
	}
}
