package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// StartProgress launches a periodic one-line status reporter reading
// from m and writing to w (normally os.Stderr, so it composes with
// stdout JSON/CSV output and with SIGINT partial flushes). It returns a
// stop function that halts the ticker and prints one final line;
// calling stop more than once is safe.
//
// A line looks like
//
//	[table2] 12400/48000 trials (2310.5/s, eta 15s) | hits 37, quarantine 0 | workers 8
//
// The rate and ETA are zero-guarded: an idle or empty campaign prints
// "0.0/s" and omits the ETA rather than emitting Inf/NaN.
func StartProgress(w io.Writer, m *Metrics, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				writeProgressLine(w, m)
			}
		}
	}()
	return func() {
		once.Do(func() {
			close(done)
			writeProgressLine(w, m)
		})
	}
}

// writeProgressLine renders one status line from a metrics snapshot.
func writeProgressLine(w io.Writer, m *Metrics) {
	s := m.SnapshotAt(time.Now())
	line := FormatProgress(s)
	fmt.Fprintln(w, line)
}

// FormatProgress renders a Snapshot as the canonical one-line status
// (exposed separately so tests can assert on it without a ticker).
func FormatProgress(s Snapshot) string {
	phase := s.Phase
	if phase == "" {
		phase = "run"
	}
	var eta string
	if s.Expected > s.Trials && s.TrialsPerSec > 0 {
		remain := float64(s.Expected-s.Trials) / s.TrialsPerSec
		eta = fmt.Sprintf(", eta %s", time.Duration(remain*float64(time.Second)).Round(time.Second))
	}
	var total string
	if s.Expected > 0 {
		total = fmt.Sprintf("/%d", s.Expected)
	}
	// With coverage on, show how much of the behavior space the campaign
	// is still discovering: distinct behaviors and the Good–Turing
	// estimate of the unseen probability mass (see Snapshot).
	var cov string
	if s.CoverageObservations > 0 {
		cov = fmt.Sprintf(" | behaviors=%d est_unseen=%.1f%%",
			s.CoverageBehaviors, 100*s.CoverageUnseenMass)
	}
	return fmt.Sprintf("[%s] %d%s trials (%.1f/s%s) | hits %d, quarantine %d%s | workers %d",
		phase, s.Trials, total, s.TrialsPerSec, eta,
		s.Hits, s.Quarantines, cov, s.Workers)
}
