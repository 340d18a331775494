package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"pctwm/internal/benchprog"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
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
	for _, b := range benchprog.All() {
		if cfg.interrupted() {
			return ErrInterrupted
		}
		// Cell labels match Figure5's: the CSV section runs the identical
		// campaigns, so a checkpointed text run seeds the CSV run and vice
		// versa.
		c11, _ := harness.BenchTrials(b, harness.C11Tester(), cfg.Runs, cfg.Seed, 0,
			cfg.campaignCell("figure5/"+b.Name+"/c11"))
		writeCSVRow(w, b.Name, "c11tester", c11)
		var bestPCT, bestWM harness.TrialResult
		for i := 0; i < 3; i++ {
			d := max(b.Depth+i, 1)
			res, _ := harness.BenchTrials(b, harness.PCTFactory(d), cfg.Runs, cfg.Seed+int64(7*i), 0,
				cfg.campaignCell(fmt.Sprintf("figure5/%s/pct-d%d", b.Name, i)))
			if res.Rate() > bestPCT.Rate() || bestPCT.Runs == 0 {
				bestPCT = res
			}
			wm, _ := harness.BestOverH(b, b.Depth+i, cfg.MaxH, cfg.Runs, cfg.Seed+int64(13*i),
				cfg.campaignCell(fmt.Sprintf("figure5/%s/pctwm-d%d", b.Name, i)))
			if wm.Rate() > bestWM.Rate() || bestWM.Runs == 0 {
				bestWM = wm
			}
		}
		writeCSVRow(w, b.Name, "pct", bestPCT)
		writeCSVRow(w, b.Name, "pctwm", bestWM)
	}
	return nil
}

// Figure6CSV emits the Figure 6 series as CSV (benchmark, writes,
// strategy, rate) for plotting.
func Figure6CSV(w io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	if _, err := fmt.Fprintln(w, "benchmark,writes,strategy,rate"); err != nil {
		return err
	}
	for _, f := range fig6Benchmarks {
		b, err := benchprog.ByName(f.name)
		if err != nil {
			return err
		}
		for _, n := range f.sweep {
			if cfg.interrupted() {
				return ErrInterrupted
			}
			c11, _ := harness.BenchTrials(b, harness.C11Tester(), cfg.Fig6Runs, cfg.Seed+int64(n), n,
				cfg.campaignCell(fmt.Sprintf("figure6/%s/w%d/c11", b.Name, n)))
			pct, _ := harness.BenchTrials(b, harness.PCTFactory(max(b.Depth, 1)), cfg.Fig6Runs, cfg.Seed+int64(2*n), n,
				cfg.campaignCell(fmt.Sprintf("figure6/%s/w%d/pct", b.Name, n)))
			wm, _ := harness.BenchTrials(b, harness.PCTWMFactory(b.Depth, 1), cfg.Fig6Runs, cfg.Seed+int64(3*n), n,
				cfg.campaignCell(fmt.Sprintf("figure6/%s/w%d/pctwm", b.Name, n)))
			fmt.Fprintf(w, "%s,%d,c11tester,%.2f\n", b.Name, n, c11.Rate())
			fmt.Fprintf(w, "%s,%d,pct,%.2f\n", b.Name, n, pct.Rate())
			fmt.Fprintf(w, "%s,%d,pctwm,%.2f\n", b.Name, n, wm.Rate())
		}
	}
	return nil
}

// TelemetryCSV emits the per-benchmark engine-counter profile as CSV
// (one row per benchmark; same campaigns as the Telemetry text section)
// for machine consumption.
func TelemetryCSV(w io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	cfg.phase("telemetry")
	if _, err := fmt.Fprintln(w, "benchmark,trials,events,handoffs,same_thread_grants,rf_cand_mean,rf_cand_max,cp_depth_mean,cp_depth_max,race_checks"); err != nil {
		return err
	}
	for _, b := range benchprog.All() {
		if cfg.interrupted() {
			return ErrInterrupted
		}
		camp := cfg.campaignCell("telemetry/" + b.Name)
		camp.Telemetry = true
		res, _ := harness.BenchTrials(b, harness.PCTWMFactory(b.Depth, 1), cfg.Runs, cfg.Seed, 0, camp)
		if res.Telemetry == nil {
			return fmt.Errorf("report: campaign for %s produced no telemetry", b.Name)
		}
		s := res.Telemetry.Summary()
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%.2f,%d,%.2f,%d,%d\n",
			b.Name, s.Trials, s.Events, s.Handoffs, s.SameThreadGrants,
			s.RFCandidates.Mean, s.RFCandidates.Max,
			s.ChangePointDepth.Mean, s.ChangePointDepth.Max,
			s.RaceChecks)
	}
	return nil
}

// CoverageCSV emits the behavior-coverage artifact as CSV: one row per
// litmus program × strategy with the census size, distinct behaviors
// found, trials to full coverage (-1 when the campaign did not
// saturate), the saturation estimators, and the novelty-gap histogram.
// The campaigns share cell labels with the Coverage text section, so a
// checkpointed text run seeds the CSV run and vice versa.
func CoverageCSV(w io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	cfg.phase("coverage")
	if _, err := fmt.Fprintln(w, "program,census,strategy,behaviors,observations,trials_to_full,est_unseen,chao1,gap_hist"); err != nil {
		return err
	}
	for _, name := range coverageTargets {
		if cfg.interrupted() {
			return ErrInterrupted
		}
		lt, err := findLitmus(name)
		if err != nil {
			return err
		}
		census, err := enumerate.BehaviorCensus(lt.Program, engine.Options{Model: cfg.Model},
			enumerate.Config{Limit: coverageCensusLimit, Workers: cfg.Workers, Context: cfg.Context})
		if err != nil {
			return err
		}
		for i, s := range coverageStrategies {
			set, err := cfg.coverageCampaign(lt, s.name, s.factory, int64(23*i))
			if err != nil {
				return err
			}
			st := set.Stats()
			trialsToFull := int64(-1)
			if census.Complete && st.Behaviors == len(census.Behaviors) {
				trialsToFull = st.LastNovel + 1
			}
			fmt.Fprintf(w, "%s,%d,%s,%d,%d,%d,%.4f,%.2f,%s\n",
				lt.Name, len(census.Behaviors), s.name, st.Behaviors, st.Observations,
				trialsToFull, st.UnseenMass, st.Chao1, histCells(st.GapHist))
		}
	}
	return nil
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
