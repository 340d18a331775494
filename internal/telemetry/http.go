package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"

	"pctwm/internal/memmodel"
)

// WritePrometheus renders the metrics in Prometheus text exposition
// format (version 0.0.4). Counter and gauge names are stable API — the
// DESIGN.md Observability section documents them, and the CI metrics
// smoke job asserts the core series are present.
func (m *Metrics) WritePrometheus(w io.Writer) {
	s := m.SnapshotAt(time.Now())

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	counter("pctwm_trials_total", "Trials completed across all campaigns.", s.Trials)
	counter("pctwm_trial_hits_total", "Failed (bug-hitting) trials: assertion violations, races, panics, deadlocks.", s.Hits)
	counter("pctwm_trial_deadlocks_total", "Trials that ended in a reported deadlock.", s.Deadlocks)
	counter("pctwm_trial_quarantines_total", "Trials whose panic escaped the engine: a strategy or engine bug, not the program's (the worker replaced its strategy).", s.Quarantines)
	counter("pctwm_trial_cancels_total", "Trials cut short by campaign cancellation; none is in pctwm_trials_total.", s.Cancels)
	counter("pctwm_events_total", "Events executed across all trials.", s.Events)
	counter("pctwm_campaigns_interrupted_total", "Campaigns cut short by context cancellation (SIGINT/SIGTERM).", s.Interrupts)

	fmt.Fprintf(w, "# HELP pctwm_repro_bundles_total Repro bundles written, by flake-triage verdict.\n# TYPE pctwm_repro_bundles_total counter\n")
	fmt.Fprintf(w, "pctwm_repro_bundles_total{triage=\"deterministic\"} %d\n", s.ReproDet)
	fmt.Fprintf(w, "pctwm_repro_bundles_total{triage=\"nondeterministic\"} %d\n", s.ReproNondet)

	counter("pctwm_checkpoint_writes_total", "Checkpoint generations committed to durable storage.", s.CheckpointWrites)
	counter("pctwm_checkpoint_retries_total", "Durable-write retries after transient filesystem errors.", s.CheckpointRetries)
	counter("pctwm_checkpoint_corrupt_recoveries_total", "Checkpoint loads that fell back past a corrupt generation.", s.CheckpointCorrupt)
	counter("pctwm_checkpoint_degraded_total", "Campaigns that stopped writing durably (directory unwritable).", s.CheckpointDegraded)

	counter("pctwm_coverage_behaviors_total", "Distinct behavior fingerprints observed across coverage-enabled trials.", s.CoverageBehaviors)
	gauge("pctwm_coverage_unseen_mass", "Good-Turing estimate of the probability the next trial shows a never-seen behavior.", s.CoverageUnseenMass)

	gauge("pctwm_trials_per_second", "Campaign-wide trial completion rate.", s.TrialsPerSec)
	gauge("pctwm_worker_count", "Campaign workers currently running trials.", float64(s.Workers))
	gauge("pctwm_worker_utilization_ratio", "Fraction of worker time spent inside trials.", s.WorkerUtilization)

	writePromHist(w, "pctwm_trial_duration_ns", "Per-trial wall time in nanoseconds.", m.trialNs.Snapshot())
	writePromHist(w, "pctwm_ns_per_event", "Per-trial nanoseconds per executed event.", m.nsPerEvent.Snapshot())

	// Engine counters (merged at trial boundaries from per-worker shards).
	eng := m.Engine()
	fmt.Fprintf(w, "# HELP pctwm_engine_ops_total Executed events by op kind and memory order.\n# TYPE pctwm_engine_ops_total counter\n")
	type cell struct {
		kind, order string
		n           uint64
	}
	var cells []cell
	for k := range eng.Ops {
		for ord := range eng.Ops[k] {
			if n := eng.Ops[k][ord]; n > 0 {
				cells = append(cells, cell{memmodel.Kind(k).String(), memmodel.Order(ord).String(), n})
			}
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].kind != cells[j].kind {
			return cells[i].kind < cells[j].kind
		}
		return cells[i].order < cells[j].order
	})
	for _, c := range cells {
		fmt.Fprintf(w, "pctwm_engine_ops_total{kind=%q,order=%q} %d\n", c.kind, c.order, c.n)
	}

	fmt.Fprintf(w, "# HELP pctwm_engine_grants_total Scheduler grants by whether they switched threads.\n# TYPE pctwm_engine_grants_total counter\n")
	fmt.Fprintf(w, "pctwm_engine_grants_total{kind=\"handoff\"} %d\n", eng.Handoffs)
	fmt.Fprintf(w, "pctwm_engine_grants_total{kind=\"same_thread\"} %d\n", eng.SameThreadGrants)

	writePromHist(w, "pctwm_engine_rf_candidates", "Coherence-legal candidate-bag sizes materialized for reads.", eng.RFCandidates)
	writePromHist(w, "pctwm_engine_change_point_depth", "Communication-event encounter indices where PCTWM change points landed.", eng.ChangePointDepth)
	counter("pctwm_engine_race_checks_total", "Vector-clock race-detector access checks.", eng.RaceChecks)
	counter("pctwm_engine_axiom_recheck_ns_total", "Wall time spent re-checking executions against the C11 axioms.", eng.AxiomRecheckNs)
}

// writePromHist renders one Hist as a Prometheus histogram with
// cumulative le bounds from the shared BucketLabel table (2^i - 1, then
// +Inf) — the same labels the CSV/report renderers use, so /metrics and
// report boundaries cannot diverge. Empty leading/trailing buckets are
// collapsed to keep output small.
func writePromHist(w io.Writer, name, help string, h Hist) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i := 0; i < HistBuckets-1; i++ {
		cum += h.Buckets[i]
		// Skip interior zero-width repeats: only emit a bound when the
		// bucket is populated or it is the first bound (le="0"), keeping
		// the cumulative series valid while dropping dead lines.
		if h.Buckets[i] == 0 && i > 0 {
			continue
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, BucketLabel(i), cum)
	}
	cum += h.Buckets[HistBuckets-1]
	fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, BucketLabel(HistBuckets-1), cum)
	fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}

// expvarOnce guards the process-global expvar registration (Publish
// panics on duplicate names; tests create many Metrics).
var expvarOnce sync.Once

// publishExpvar registers this Metrics under the "pctwm" expvar name.
// Only the first Metrics per process wins, which matches the one-hub
// usage model.
func (m *Metrics) publishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("pctwm", expvar.Func(func() any {
			return m.SnapshotAt(time.Now())
		}))
	})
}

// Handler returns the monitoring mux for a Metrics:
//
//	/metrics       Prometheus text format
//	/metrics.json  Snapshot as JSON
//	/debug/vars    expvar JSON (includes the "pctwm" var)
func (m *Metrics) Handler() http.Handler {
	m.publishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(m.SnapshotAt(time.Now()))
	})
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// ListenAndServe starts the monitoring endpoint on addr in a background
// goroutine and returns the bound address (useful with ":0") and a stop
// function. Serving failures after a successful bind are dropped: the
// endpoint is best-effort observability, never a campaign-killer.
func (m *Metrics) ListenAndServe(addr string) (bound string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: m.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// ListenAndServePprof exposes net/http/pprof on addr (for long
// campaigns; pair with the pprof labels campaign workers run under).
func ListenAndServePprof(addr string) (bound string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
