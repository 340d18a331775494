package report

import (
	"errors"
	"fmt"
	"io"

	"pctwm/internal/distcheck"
	"pctwm/internal/engine"
	"pctwm/internal/harness"
)

// ErrConformance is returned by DistCheck when a distributional check
// failed — either a shipped strategy diverged from its expected sampling
// distribution, or the colliding regression fixture went undetected. The
// rendered table above the error names the failing checks; callers
// should exit nonzero.
var ErrConformance = errors.New("report: strategy conformance failed")

// DistCheck renders the strategy-conformance harness
// (internal/distcheck): the shipped Random/PCT/PCTWM strategies checked
// against exact ground truth from the exhaustive explorer — a G-test of
// each strategy's campaign against its own exact distribution, the exact
// rank-permutation probabilities, and each census behavior's exact
// probability against PCTBound/PCTWMBound — followed by the
// colliding-priority regression fixture (distcheck.CollidingFixture),
// which must fail its permutation check.
//
// The campaign sizes its own run counts: statistical power needs a fixed
// sample size, independent of the -runs table sizing. Seed, model and
// the campaign template (workers, context, metrics) flow in from the
// report config; the seed moves only the fit check's samples.
func DistCheck(w io.Writer, cfg Config) error {
	cfg = cfg.normalized()
	cfg.phase("distcheck")
	res, err := harness.DistCheckCampaign(nil, cfg.Seed, engine.Options{Model: cfg.Model}, cfg.Campaign)
	if err != nil {
		if cfg.interrupted() {
			return ErrInterrupted
		}
		return err
	}
	fmt.Fprintf(w, "Strategy conformance: distributional checks against exact ground truth (seed=%d, model=%s).\n",
		cfg.Seed, modelLabel(cfg.Model))
	tw := newTab(w)
	fmt.Fprintln(tw, "Check\tStrategy\tProgram\tVerdict\tp\tDetail")
	for _, r := range res.Conformance.Results {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Check, r.Strategy, dash(r.Program), verdict(r.Pass), pValue(r), r.Detail)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nRegression fixture (pre-fix colliding priority assignment) — the permutation check must FAIL:")
	tw = newTab(w)
	fmt.Fprintln(tw, "Fixture\tVerdict\tDetail")
	for _, r := range res.Fixtures.Results {
		v := "detected"
		if r.Pass {
			v = "NOT DETECTED"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", r.Strategy, v, r.Detail)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if !res.Passed {
		return ErrConformance
	}
	fmt.Fprintln(w, "\nConformance: PASS (all checks passed, fixture detected).")
	return nil
}

func verdict(pass bool) string {
	if pass {
		return "pass"
	}
	return "FAIL"
}

func dash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// pValue renders the p-value of the fit check, the one sampled check,
// and a dash for the exact ones (bound, permutation).
func pValue(r distcheck.CheckResult) string {
	if r.Check == "fit" {
		return fmt.Sprintf("%.3g", r.P)
	}
	return "-"
}

func modelLabel(m string) string {
	if m == "" {
		return engine.ModelRC11
	}
	return m
}
