package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"pctwm/internal/harness"
	"pctwm/internal/telemetry"
)

// Figure5CSV emits the Figure 5 series as CSV (benchmark, strategy,
// rate, ci_low, ci_high) for plotting.
func Figure5CSV(w io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	if _, err := fmt.Fprintln(w, "benchmark,strategy,rate,ci_low,ci_high"); err != nil {
		return err
	}
	rows, err := figure5(cfg)
	for _, r := range rows {
		writeCSVRow(w, r.bench, "c11tester", r.c11)
		writeCSVRow(w, r.bench, "pct", r.pct)
		writeCSVRow(w, r.bench, "pctwm", r.pctwm)
	}
	return err
}

// Figure6CSV emits the Figure 6 series as CSV (benchmark, writes,
// strategy, rate) for plotting.
func Figure6CSV(w io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	if _, err := fmt.Fprintln(w, "benchmark,writes,strategy,rate"); err != nil {
		return err
	}
	series, err := figure6(cfg)
	for _, s := range series {
		for _, p := range s.points {
			fmt.Fprintf(w, "%s,%d,c11tester,%.2f\n", s.bench.Name, p.writes, p.c11)
			fmt.Fprintf(w, "%s,%d,pct,%.2f\n", s.bench.Name, p.writes, p.pct)
			fmt.Fprintf(w, "%s,%d,pctwm,%.2f\n", s.bench.Name, p.writes, p.pctwm)
		}
	}
	return err
}

// TelemetryCSV emits the per-benchmark engine-counter profile as CSV
// (one row per benchmark; same campaigns as the Telemetry text section)
// for machine consumption.
func TelemetryCSV(w io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	if _, err := fmt.Fprintln(w, "benchmark,trials,events,handoffs,same_thread_grants,rf_cand_mean,rf_cand_max,cp_depth_mean,cp_depth_max,race_checks"); err != nil {
		return err
	}
	rows, err := telemetryRows(cfg)
	for _, r := range rows {
		s := r.summary
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%.2f,%d,%.2f,%d,%d\n",
			r.bench, s.Trials, s.Events, s.Handoffs, s.SameThreadGrants,
			s.RFCandidates.Mean, s.RFCandidates.Max,
			s.ChangePointDepth.Mean, s.ChangePointDepth.Max,
			s.RaceChecks)
	}
	return err
}

// CoverageCSV emits the behavior-coverage artifact as CSV: one row per
// litmus program × strategy with the census size, distinct behaviors
// found, trials to full coverage (-1 when the campaign did not
// saturate), the saturation estimators, and the novelty-gap histogram.
func CoverageCSV(w io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	if _, err := fmt.Fprintln(w, "program,census,strategy,behaviors,observations,trials_to_full,est_unseen,chao1,gap_hist"); err != nil {
		return err
	}
	rows, err := coverageRows(cfg)
	for _, r := range rows {
		for i, set := range r.sets {
			st := set.Stats()
			trialsToFull := int64(-1)
			if r.census.Complete && st.Behaviors == len(r.census.Behaviors) {
				trialsToFull = st.LastNovel + 1
			}
			fmt.Fprintf(w, "%s,%d,%s,%d,%d,%d,%.4f,%.2f,%s\n",
				r.program, len(r.census.Behaviors), coverageStrategies[i].name, st.Behaviors, st.Observations,
				trialsToFull, st.UnseenMass, st.Chao1, histCells(st.GapHist))
		}
	}
	return err
}

// histCells renders a histogram's populated buckets as "label:count"
// pairs joined by ";". The labels come from telemetry.BucketLabel — the
// exact table behind the Prometheus `le` labels — so the boundaries in
// the CSV and on /metrics can never disagree (a test pins this).
func histCells(h telemetry.Hist) string {
	var parts []string
	for i, n := range h.Buckets {
		if n > 0 {
			parts = append(parts, telemetry.BucketLabel(i)+":"+strconv.FormatUint(n, 10))
		}
	}
	return strings.Join(parts, ";")
}

func writeCSVRow(w io.Writer, bench, strategy string, res harness.TrialResult) {
	lo, hi := res.CI95()
	fmt.Fprintf(w, "%s,%s,%.2f,%.2f,%.2f\n", bench, strategy, res.Rate(), lo, hi)
}
