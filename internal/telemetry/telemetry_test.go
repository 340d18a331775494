package telemetry

import (
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"pctwm/internal/memmodel"
)

// TestMatrixCoversEnums: the dense op matrix must be able to index every
// kind/order the memory model defines (a new enum value must bump the
// constants, or CountOp silently drops it).
func TestMatrixCoversEnums(t *testing.T) {
	for k := 0; ; k++ {
		if strings.HasPrefix(memmodel.Kind(k).String(), "kind(") {
			if k != NumKinds {
				t.Fatalf("memmodel defines %d kinds, NumKinds is %d", k, NumKinds)
			}
			break
		}
	}
	for o := 0; ; o++ {
		if strings.HasPrefix(memmodel.Order(o).String(), "order(") {
			if o != NumOrders {
				t.Fatalf("memmodel defines %d orders, NumOrders is %d", o, NumOrders)
			}
			break
		}
	}
	// Out-of-range values are dropped, not a panic or corruption.
	var c EngineCounters
	c.CountOp(memmodel.Kind(NumKinds+3), memmodel.Order(NumOrders+3))
	if c.Events() != 0 {
		t.Fatalf("out-of-range op was counted")
	}
}

// TestHistBuckets: values land in the log2 bucket whose upper bound
// (2^i - 1) is the smallest one >= v, and the last bucket absorbs the
// overflow.
func TestHistBuckets(t *testing.T) {
	var h Hist
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 20, 21}, {math.MaxUint64, HistBuckets - 1},
	}
	for _, c := range cases {
		h = Hist{}
		h.Observe(c.v)
		if h.Buckets[c.bucket] != 1 {
			t.Fatalf("value %d not in bucket %d: %v", c.v, c.bucket, h.Buckets)
		}
		if c.bucket < HistBuckets-1 && BucketUpper(c.bucket) < c.v {
			t.Fatalf("bucket %d upper %d < value %d", c.bucket, BucketUpper(c.bucket), c.v)
		}
	}
}

// TestHistMergeAndMean: merge adds counts/sums/buckets, keeps the max,
// and Mean stays zero-guarded.
func TestHistMergeAndMean(t *testing.T) {
	var a, b Hist
	if a.Mean() != 0 {
		t.Fatalf("empty mean %v", a.Mean())
	}
	a.Observe(2)
	a.Observe(4)
	b.Observe(100)
	a.Merge(&b)
	if a.Count != 3 || a.Sum != 106 || a.Max != 100 {
		t.Fatalf("merge: %+v", a)
	}
	if got := a.Mean(); math.Abs(got-106.0/3) > 1e-9 {
		t.Fatalf("mean %v", got)
	}
}

// TestAtomicHistMatchesHist: the atomic mirror buckets identically to the
// plain histogram.
func TestAtomicHistMatchesHist(t *testing.T) {
	var plain Hist
	var at AtomicHist
	for _, v := range []uint64{0, 1, 3, 9, 100, 5000} {
		plain.Observe(v)
		at.Observe(v)
	}
	if snap := at.Snapshot(); snap != plain {
		t.Fatalf("atomic snapshot %+v != plain %+v", snap, plain)
	}
}

// TestEngineCountersMerge: merging shards is order-independent and the
// change-point log (a per-Runner diagnostic) is excluded.
func TestEngineCountersMerge(t *testing.T) {
	mk := func(seed uint64) *EngineCounters {
		c := &EngineCounters{}
		c.Trials = seed
		c.CountOp(memmodel.KindRead, memmodel.Relaxed)
		c.Handoffs = 2 * seed
		c.RFCandidates.Observe(seed)
		c.LogChangePoint(ChangePoint{Comm: int(seed)})
		c.RaceChecks = seed
		return c
	}
	var ab, ba EngineCounters
	ab.Merge(mk(3))
	ab.Merge(mk(5))
	ba.Merge(mk(5))
	ba.Merge(mk(3))
	if !reflect.DeepEqual(ab.Summary(), ba.Summary()) {
		t.Fatalf("merge order changed totals")
	}
	if len(ab.ChangePoints) != 0 {
		t.Fatalf("merge copied the change-point log")
	}
	if ab.Trials != 8 || ab.Handoffs != 16 || ab.RaceChecks != 8 {
		t.Fatalf("merged totals wrong: %+v", ab)
	}
}

// TestChangePointLogCap: the log stops growing at the cap while the depth
// histogram keeps counting.
func TestChangePointLogCap(t *testing.T) {
	var c EngineCounters
	for i := 0; i < maxChangePointLog+50; i++ {
		c.LogChangePoint(ChangePoint{Comm: i})
	}
	if len(c.ChangePoints) != maxChangePointLog {
		t.Fatalf("log length %d", len(c.ChangePoints))
	}
	if c.ChangePointDepth.Count != uint64(maxChangePointLog+50) {
		t.Fatalf("histogram count %d", c.ChangePointDepth.Count)
	}
}

// TestMetricsSnapshotGuards: an untouched hub snapshots to all-zero
// finite values (no NaN/Inf — the snapshot must always JSON-encode).
func TestMetricsSnapshotGuards(t *testing.T) {
	var m Metrics
	s := m.SnapshotAt(time.Now())
	for name, v := range map[string]float64{
		"trials_per_sec": s.TrialsPerSec,
		"utilization":    s.WorkerUtilization,
		"uptime":         s.UptimeSec,
		"ns_mean":        s.NsPerEvent.Mean,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s is %v", name, v)
		}
	}
	if s.TrialsPerSec != 0 || s.WorkerUtilization != 0 {
		t.Fatalf("idle hub not zero: %+v", s)
	}
	if m.TrialsPerSec() != 0 {
		t.Fatalf("idle TrialsPerSec %v", m.TrialsPerSec())
	}
}

// TestRateGuard: the shared rate helper never divides by zero.
func TestRateGuard(t *testing.T) {
	cases := []struct {
		n    uint64
		d    time.Duration
		want float64
	}{
		{0, 0, 0},
		{0, time.Second, 0},
		{10, 0, 0},
		{10, -time.Second, 0},
		{10, 2 * time.Second, 5},
	}
	for _, c := range cases {
		if got := rate(c.n, c.d); got != c.want {
			t.Fatalf("rate(%d, %v) = %v, want %v", c.n, c.d, got, c.want)
		}
	}
}

// TestMetricsObserveTrial: the per-trial taxonomy lands in the right
// counters and histograms, and a canceled trial counts only as a cancel.
func TestMetricsObserveTrial(t *testing.T) {
	var m Metrics
	m.ObserveTrial(TrialObs{Duration: time.Millisecond, Events: 1000, Hit: true, Deadlocked: true})
	m.ObserveTrial(TrialObs{Quarantined: true})
	m.ObserveTrial(TrialObs{Canceled: true, Duration: time.Millisecond, Events: 500, Hit: true})
	m.ReproTriaged("DETERMINISTIC")
	m.ReproTriaged("NONDETERMINISTIC")
	s := m.SnapshotAt(time.Now())
	if s.Trials != 2 || s.Hits != 1 || s.Deadlocks != 1 || s.Quarantines != 1 || s.Cancels != 1 {
		t.Fatalf("taxonomy: %+v", s)
	}
	if s.ReproDet != 1 || s.ReproNondet != 1 {
		t.Fatalf("triage: %+v", s)
	}
	if s.NsPerEvent.Count != 1 || s.NsPerEvent.Mean != 1000 {
		t.Fatalf("ns/event: %+v", s.NsPerEvent)
	}
	if s.Events != 1000 {
		t.Fatalf("events: %d", s.Events)
	}
}

// TestWritePrometheus: the core series the CI smoke job asserts are all
// present, and histograms render a valid cumulative form.
func TestWritePrometheus(t *testing.T) {
	var m Metrics
	m.ObserveTrial(TrialObs{Duration: time.Millisecond, Events: 500, Hit: true})
	m.ObserveTrial(TrialObs{Quarantined: true})
	var eng EngineCounters
	eng.CountOp(memmodel.KindRead, memmodel.Acquire)
	eng.Handoffs = 4
	eng.RFCandidates.Observe(3)
	m.MergeEngine(&eng)

	var sb strings.Builder
	m.WritePrometheus(&sb)
	out := sb.String()
	for _, series := range []string{
		"pctwm_trials_total 2",
		"pctwm_trial_hits_total 1",
		"pctwm_trial_quarantines_total 1",
		"pctwm_trial_cancels_total 0",
		"pctwm_events_total 500",
		"pctwm_repro_bundles_total{triage=\"deterministic\"}",
		"pctwm_trials_per_second",
		"pctwm_worker_utilization_ratio",
		"pctwm_ns_per_event_bucket{le=\"+Inf\"} 1",
		"pctwm_ns_per_event_count 1",
		"pctwm_trial_duration_ns_sum",
		"pctwm_engine_ops_total{kind=\"R\",order=\"acq\"} 1",
		"pctwm_engine_grants_total{kind=\"handoff\"} 4",
		"pctwm_engine_rf_candidates_count 1",
	} {
		if !strings.Contains(out, series) {
			t.Fatalf("prometheus output missing %q:\n%s", series, out)
		}
	}
}

// TestFormatProgress: the status line renders rate/ETA zero-guarded and
// includes the failure taxonomy.
func TestFormatProgress(t *testing.T) {
	line := FormatProgress(Snapshot{})
	if !strings.Contains(line, "[run] 0 trials (0.0/s)") {
		t.Fatalf("idle line: %q", line)
	}
	if strings.Contains(line, "eta") {
		t.Fatalf("idle line has an ETA: %q", line)
	}
	s := Snapshot{
		Phase: "table2", Expected: 100, Trials: 40, TrialsPerSec: 20,
		Hits: 3, Quarantines: 1, Workers: 4,
	}
	line = FormatProgress(s)
	for _, want := range []string{"[table2]", "40/100", "20.0/s", "eta 3s",
		"hits 3", "quarantine 1", "workers 4"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
}

// TestHandlerEndpoints: the mux serves Prometheus text, the JSON
// snapshot, and expvar, and ListenAndServe binds ":0" successfully.
func TestHandlerEndpoints(t *testing.T) {
	var m Metrics
	m.ObserveTrial(TrialObs{Duration: time.Millisecond, Events: 10})
	bound, stop, err := m.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for path, want := range map[string]string{
		"/metrics":      "pctwm_trials_total 1",
		"/metrics.json": "\"trials\": 1",
		"/debug/vars":   "\"pctwm\"",
	} {
		resp, err := http.Get("http://" + bound + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Fatalf("%s missing %q:\n%s", path, want, body)
		}
	}
}
