package telemetry

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMetricsCoverage: trial observations carrying behavior fingerprints
// land in the live coverage counters, and trials without a behavior
// (errored runs, coverage off) do not.
func TestMetricsCoverage(t *testing.T) {
	var m Metrics
	m.ObserveTrial(TrialObs{HasBehavior: true, BehaviorFP: 10})
	m.ObserveTrial(TrialObs{HasBehavior: true, BehaviorFP: 10})
	m.ObserveTrial(TrialObs{HasBehavior: true, BehaviorFP: 20})
	m.ObserveTrial(TrialObs{})                            // coverage off
	m.ObserveTrial(TrialObs{Hit: true, Deadlocked: true}) // errored: no behavior
	behaviors, obs, singletons := m.Coverage()
	if behaviors != 2 || obs != 3 || singletons != 1 {
		t.Fatalf("behaviors=%d obs=%d singletons=%d, want 2/3/1", behaviors, obs, singletons)
	}
	s := m.SnapshotAt(time.Now())
	if s.CoverageBehaviors != 2 || s.CoverageObservations != 3 {
		t.Fatalf("snapshot coverage: %+v", s)
	}
	if want := 1.0 / 3.0; s.CoverageUnseenMass != want {
		t.Fatalf("unseen mass %v want %v", s.CoverageUnseenMass, want)
	}
	if UnseenMass(0, 0) != 0 {
		t.Fatal("UnseenMass(0,0) must guard the division")
	}
}

// TestWritePrometheusCoverage: the two series the CI coverage smoke job
// greps for are present and carry the live values.
func TestWritePrometheusCoverage(t *testing.T) {
	var m Metrics
	m.ObserveTrial(TrialObs{HasBehavior: true, BehaviorFP: 1})
	m.ObserveTrial(TrialObs{HasBehavior: true, BehaviorFP: 2})
	var sb strings.Builder
	m.WritePrometheus(&sb)
	out := sb.String()
	for _, series := range []string{
		"pctwm_coverage_behaviors_total 2",
		"pctwm_coverage_unseen_mass 1",
	} {
		if !strings.Contains(out, series) {
			t.Fatalf("prometheus output missing %q:\n%s", series, out)
		}
	}
}

// TestBucketLabelPin: every histogram boundary rendered anywhere — the
// Prometheus `le` labels and the report CSV gap-histogram cells — comes
// from the single BucketLabel table, so the boundaries can never
// disagree. This pins the table against both the bucket math and the
// /metrics output.
func TestBucketLabelPin(t *testing.T) {
	if last := BucketLabel(HistBuckets - 1); last != "+Inf" {
		t.Fatalf("last label %q, want +Inf", last)
	}
	for i := 0; i < HistBuckets-1; i++ {
		if want := fmt.Sprintf("%d", BucketUpper(i)); BucketLabel(i) != want {
			t.Fatalf("BucketLabel(%d) = %q, want %q", i, BucketLabel(i), want)
		}
	}

	// The `le` labels on /metrics must be drawn from the table in table
	// order (the writer collapses empty interior buckets, so the emitted
	// labels are an ordered subset ending at +Inf).
	var m Metrics
	m.ObserveTrial(TrialObs{Duration: 1000, Events: 1})
	var sb strings.Builder
	m.WritePrometheus(&sb)
	re := regexp.MustCompile(`pctwm_ns_per_event_bucket\{le="([^"]+)"\}`)
	var got []string
	for _, match := range re.FindAllStringSubmatch(sb.String(), -1) {
		got = append(got, match[1])
	}
	if len(got) == 0 || got[len(got)-1] != "+Inf" {
		t.Fatalf("le labels %v do not end at +Inf", got)
	}
	next := 0
	for _, le := range got {
		for next < HistBuckets && BucketLabel(next) != le {
			next++
		}
		if next == HistBuckets {
			t.Fatalf("le label %q is not in the BucketLabel table (or out of order): %v", le, got)
		}
		next++
	}
	// 1000 ns/event lands in the le="1023" bucket; its exact label must
	// be present, not a neighboring boundary.
	if !strings.Contains(sb.String(), `pctwm_ns_per_event_bucket{le="1023"} 1`) {
		t.Fatalf("populated bucket label missing:\n%s", sb.String())
	}
}

// TestFormatProgressCoverage: the status line gains the behaviors /
// est_unseen fields exactly when coverage observations exist.
func TestFormatProgressCoverage(t *testing.T) {
	s := Snapshot{Phase: "run", Trials: 10, Workers: 2}
	if line := FormatProgress(s); strings.Contains(line, "behaviors=") {
		t.Fatalf("coverage-off line mentions behaviors: %q", line)
	}
	s.CoverageBehaviors = 7
	s.CoverageObservations = 9
	s.CoverageUnseenMass = 0.25
	line := FormatProgress(s)
	for _, want := range []string{"behaviors=7", "est_unseen=25.0%", "workers 2"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
}
